"""Annealing-style stochastic sampler standing in for a quantum annealer.

Each read runs an independent Metropolis anneal from a uniform random state,
with the inverse temperature swept linearly between the configured endpoints.
Timing is bookkeeping, not measurement: every read costs a fixed core
duration (the hardware analog is 20 microseconds), and wallclock adds
configured programming, per-read readout, and postprocessing overheads.

A run comes back as one SampleBatch: the final spins of every read in a
single int8 array, their energies, and the cumulative core and wall times.
Iterating a batch yields one SampleRecord per read, the row type of the JSONL
output.

Determinism: read r consumes only its own RNG stream, the one numpy's
Generator(PCG64(SeedSequence((seed, r)))) gives: n draws of
integers(0, 2) for its initial spins, then one uniform per proposal, spin by
spin and sweep by sweep.  So read r depends only on (seed, r), and a k-read
run is the first k reads of any longer run.

The anneal runs in a C kernel (_anneal.c), compiled with the system C
compiler (``cc``) on first use into the per-user cache directory
($XDG_CACHE_HOME/cascor, else ~/.cache/cascor) and loaded through ctypes.
It replays each read's stream itself and sweeps the spins in order, with
local fields summed over neighbour lists.  A flip with v = s_i * local >= 0
is always accepted; otherwise it is accepted when u < exp(2 beta v).
For integral models v is an exact integer, and the probabilities come from a
table numpy computes as exp(-2 beta k) for each sweep and each k up to the
largest |local|, so they are the very values the numpy reference loop
(tests/conftest.py::slow_anneal) computes.  Float models, and integral
models whose table would exceed _TABLE_BYTES, call libm's exp instead, which
can differ from numpy's in the last bit; like a float local field summed in
another order, that changes a spin only if a uniform falls within one ulp of
its acceptance probability.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import operator
import os
import subprocess
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .compiler import PenaltyLayout
from .ising import Gauge, IsingModel, SpinState, apply_gauge, energies_of_states
from .sat import Assignment, Cnf, _derived_rng, _derived_seed

__all__ = [
    "OverheadModel",
    "SamplerConfig",
    "SampleRecord",
    "SampleBatch",
    "sample",
    "decode_all",
    "sample_with_srt_rotation",
    "random_gauges",
    "record_to_json",
    "record_from_json",
]

_SOURCE = Path(__file__).with_name("_anneal.c")
_CC = "cc"
# No -ffast-math, and no fused multiply-adds: local fields and exp arguments
# must round as the numpy reference rounds them.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Integral models whose acceptance table would exceed this many bytes call exp.
_TABLE_BYTES = 1 << 20


@dataclass(frozen=True)
class OverheadModel:
    """Wallclock components beyond the core anneal, in integer microseconds."""

    programming_us: int = 0
    per_read_readout_us: int = 0
    post_us: int = 0

    def __post_init__(self) -> None:
        for name in ("programming_us", "per_read_readout_us", "post_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SamplerConfig:
    num_reads: int = 1000
    sweeps: int = 100
    beta_start: float = 0.1
    beta_end: float = 5.0
    seed: int = 0
    core_time_per_read_us: int = 20
    overhead: OverheadModel = OverheadModel()

    def __post_init__(self) -> None:
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not (0 < self.beta_start <= self.beta_end):
            raise ValueError("need 0 < beta_start <= beta_end")
        if self.core_time_per_read_us < 0:
            raise ValueError("core_time_per_read_us must be >= 0")


@dataclass(frozen=True)
class SampleRecord:
    """One annealing read: final spins, energy, and cumulative timing."""

    read_index: int
    spins: SpinState
    energy: float
    core_time_us: int
    wall_time_us: int


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """All reads of one sampling run; row r of every array belongs to read r.

    ``spins`` is (reads, qubits) int8, ``energies`` is int64 for integral
    models and float64 otherwise, and ``core_time_us``/``wall_time_us`` are
    the int64 cumulative times after each read.
    """

    spins: np.ndarray
    energies: np.ndarray
    core_time_us: np.ndarray
    wall_time_us: np.ndarray

    def __len__(self) -> int:
        return len(self.spins)

    def __iter__(self) -> Iterator[SampleRecord]:
        rows = zip(self.spins.tolist(), self.energies.tolist(),
                   self.core_time_us.tolist(), self.wall_time_us.tolist())
        for r, (spins, e, core, wall) in enumerate(rows):
            yield SampleRecord(r, tuple(spins), e, core, wall)

    @classmethod
    def of(cls, records: Sequence[SampleRecord]) -> "SampleBatch":
        """Batch of a nonempty record sequence in read order (e.g. parsed JSONL rows)."""
        return cls(
            np.array([r.spins for r in records], dtype=np.int8),
            np.array([r.energy for r in records]),
            np.array([r.core_time_us for r in records], dtype=np.int64),
            np.array([r.wall_time_us for r in records], dtype=np.int64),
        )


def _build_kernel() -> Path:
    """Path of the compiled kernel in the per-user cache, compiling it first if absent.

    The file is keyed by a SHA-256 of the source, compiler and flags, and is
    compiled under a temporary name and renamed into place, so processes that
    build at once each load a complete library.
    """
    command = [_CC, *_CFLAGS]
    key = hashlib.sha256(repr(command).encode() + _SOURCE.read_bytes()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "cascor"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise RuntimeError(f"kernel cache {cache} is not private to this user")
    lib = cache / f"_anneal-{key[:32]}.so"
    if lib.exists():
        return lib
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
    os.close(fd)
    try:
        done = subprocess.run([*command, "-o", tmp, str(_SOURCE), "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"C compiler {_CC!r} failed on {_SOURCE.name}:\n{done.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


@functools.cache
def _kernel():
    """The anneal kernel's C function, built and loaded on first use."""
    try:
        kernel = ctypes.CDLL(str(_build_kernel())).cascor_anneal
    except OSError as exc:
        # say, no compiler: cli.main would report a FileNotFoundError as an input error
        raise RuntimeError(
            f"cannot build or load the anneal kernel with C compiler {_CC!r}: {exc}") from exc
    i64 = ctypes.c_int64
    u32s, i64s, f64s, i8s = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                             for t in (np.uint32, np.int64, np.float64, np.int8))
    kernel.argtypes = [u32s, i64, i64, i64, i64, i64s, i64s, f64s, f64s, f64s, f64s, i64,
                       f64s, i8s]
    kernel.restype = None
    return kernel


def _anneal(model: IsingModel, cfg: SamplerConfig) -> np.ndarray:
    """Final spins of every read, (reads, qubits) int8."""
    seed = operator.index(cfg.seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # SeedSequence's entropy words: the seed's 32-bit digits, least significant first
    shifts = range(0, max(seed.bit_length(), 1), 32)
    seed_words = np.array([seed >> shift & 0xFFFFFFFF for shift in shifts], dtype=np.uint32)
    n = model.num_qubits
    coupling = model.arrays.coupling
    h = model.arrays.h.astype(np.float64)
    rows, cols = np.nonzero(coupling)  # row-major: CSR order
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    two_betas = 2.0 * np.linspace(cfg.beta_start, cfg.beta_end, cfg.sweeps)
    table = np.empty((cfg.sweeps, 0))
    if model.is_integral():
        # v = s_i * local is an exact integer, |v| <= vmax.  Scaling by 2 and negating
        # are exact, so np.exp of 2 beta * -k is the reference's exp(-beta * delta) bit
        # for bit; libm's exp is not (it differs in the last bit on some inputs).
        vmax = int(np.max(np.abs(h) + np.abs(coupling).sum(axis=1), initial=0))
        if cfg.sweeps * (vmax + 1) * 8 <= _TABLE_BYTES:
            table = np.exp(np.outer(two_betas, -np.arange(vmax + 1)))
    spins = np.empty((cfg.num_reads, n), dtype=np.int8)
    _kernel()(seed_words, len(seed_words), cfg.num_reads, n, cfg.sweeps, indptr,
              cols.astype(np.int64), coupling[rows, cols], h, two_betas,
              table, table.shape[1], np.empty(n), spins)
    return spins


def sample(model: IsingModel, cfg: SamplerConfig) -> SampleBatch:
    """Draw cfg.num_reads independent annealed samples with cumulative timing."""
    spins = _anneal(model, cfg)
    reads_done = np.arange(1, cfg.num_reads + 1, dtype=np.int64)
    per_read_wall = cfg.core_time_per_read_us + cfg.overhead.per_read_readout_us
    base_wall = cfg.overhead.programming_us + cfg.overhead.post_us
    return SampleBatch(
        spins,
        energies_of_states(model, spins),
        reads_done * cfg.core_time_per_read_us,
        base_wall + reads_done * per_read_wall,
    )


def decode_all(batch: SampleBatch, layout: PenaltyLayout, cnf: Cnf) -> list[Assignment | None]:
    """Variable-bit projection of every read, kept only where it satisfies the CNF.

    Ancilla consistency and sample energy are deliberately ignored; variables
    absent from every clause have no qubit and default to false.
    """
    bits = np.zeros((len(batch), cnf.num_vars), dtype=bool)
    for var, q in layout.var_to_qubit.items():
        bits[:, var - 1] = batch.spins[:, q] > 0
    satisfied = np.ones(len(batch), dtype=bool)
    for clause in cnf.clauses:
        clause_sat = np.zeros(len(batch), dtype=bool)
        for lit in clause.literals:
            clause_sat |= bits[:, lit.var - 1] != lit.negated
        satisfied &= clause_sat
    return [tuple(row) if ok else None for row, ok in zip(bits.tolist(), satisfied.tolist())]


_GAUGE_STREAM_TAG = 0x67617567  # keeps gauge draws off the per-read streams


def random_gauges(num_qubits: int, count: int, seed: int) -> list[Gauge]:
    """Deterministic random +/-1 gauges for SRT rotation runs."""
    rng = _derived_rng(seed, _GAUGE_STREAM_TAG)
    return [
        tuple(int(g) for g in (2 * rng.integers(0, 2, size=num_qubits) - 1))
        for _ in range(count)
    ]


def sample_with_srt_rotation(
    model: IsingModel, cfg: SamplerConfig, gauges: list[Gauge]
) -> list[SampleBatch]:
    """Sample once per gauge on the gauge-transformed model, un-gauging the spins.

    Energies are kept from the gauged run; by the gauge identity they equal
    the original model's energy of the un-gauged spins exactly.
    """
    runs: list[SampleBatch] = []
    for gi, gauge in enumerate(gauges):
        if len(gauge) != model.num_qubits:
            raise ValueError(
                f"gauge {gi} has length {len(gauge)}, model has {model.num_qubits} qubits"
            )
        gauged = apply_gauge(model, gauge)
        batch = sample(gauged, replace(cfg, seed=_derived_seed(cfg.seed, gi)))
        runs.append(replace(batch, spins=batch.spins * np.array(gauge, dtype=np.int8)))
    return runs


def record_to_json(
    record: SampleRecord, solution: Assignment | None, gauge: int | None = None
) -> dict:
    doc = {
        "read": record.read_index,
        "spins": list(record.spins),
        "energy": record.energy,
        "core_time_us": record.core_time_us,
        "wall_time_us": record.wall_time_us,
        "solution": "".join("1" if b else "0" for b in solution) if solution else None,
    }
    if gauge is not None:
        doc["gauge"] = gauge
    return doc


def record_from_json(line: str | dict) -> tuple[SampleRecord, Assignment | None, int | None]:
    doc = json.loads(line) if isinstance(line, str) else line
    record = SampleRecord(
        read_index=int(doc["read"]),
        spins=tuple(int(s) for s in doc["spins"]),
        energy=doc["energy"],
        core_time_us=int(doc["core_time_us"]),
        wall_time_us=int(doc["wall_time_us"]),
    )
    sol = doc.get("solution")
    assignment = tuple(c == "1" for c in sol) if sol is not None else None
    return record, assignment, doc.get("gauge")
