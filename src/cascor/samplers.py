"""Annealing-style stochastic sampler standing in for a quantum annealer.

Each read runs an independent Metropolis anneal from a uniform random state,
with the inverse temperature swept linearly between the configured endpoints.
Timing is bookkeeping, not measurement: every read costs a fixed core
duration (the hardware analog is 20 microseconds), and wallclock adds
configured programming, per-read readout, and postprocessing overheads.

A run comes back as one SampleBatch: the final spins of every read in a
single int8 array, their energies, and the cumulative core and wall times.
Iterating a batch yields one SampleRecord per read, a row of plain Python
values.  The sample JSONL file is written whole from the batches' arrays by
samples_to_jsonl, which builds the text of each distinct spins row and
solution once, and read back, every field checked, by samples_from_jsonl,
which keeps only a tuple of the five fields it reads from each line.

Determinism: read r consumes only its own RNG stream, the one numpy's
Generator(PCG64(SeedSequence((seed, r)))) gives: n draws of
integers(0, 2) for its initial spins, then one uniform per proposal, spin by
spin and sweep by sweep.  So read r depends only on (seed, r), and a k-read
run is the first k reads of any longer run.

The anneal runs in a C kernel (_anneal.c), compiled with the system C
compiler (``cc``) on first use into the per-user cache directory
($XDG_CACHE_HOME/cascor, else ~/.cache/cascor) and loaded through ctypes.
It replays each read's stream itself and sweeps the spins in order over the
model's CSR neighbour lists (IsingModel.arrays).  A flip with
v = s_i * local >= 0 is always accepted; otherwise it is accepted when
u < exp(2 beta v).  The kernel has two loops:

- Integral models keep int64 local fields, summed once per read and updated
  along a flipped spin's neighbour list on each accepted flip.  Integer sums
  are exact in any order, so v is the reference's v, and the probabilities
  come from a table numpy computes as exp(-2 beta k) for each sweep and each
  k up to the largest |local|: the very values the numpy reference loop
  (tests/conftest.py::slow_anneal) computes.  The table holds each p as the
  integer ceil(p * 2**53), and the kernel accepts when the 53-bit integer m
  of the uniform u = m / 2**53 is below it.  For an integer m, m < p * 2**53
  holds exactly when m < ceil(p * 2**53), and scaling by 2**53 (ldexp) is
  exact for every double in [0, 1], subnormals included, so the integer
  comparison is u < p bit for bit.
- Float models sum each local field over its neighbour row at every
  proposal, since fields updated incrementally would drift from a row sum.

Float models, and integral models whose table would exceed _TABLE_BYTES,
call libm's exp instead, which can differ from numpy's in the last bit; like
a float local field summed in another order, that changes a spin only if a
uniform falls within one ulp of its acceptance probability.
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
from .sat import Assignment, Cnf, _bit_text, _column, _derived_rng, _derived_seed, _jsonl_objects

__all__ = [
    "OverheadModel",
    "SamplerConfig",
    "SampleRecord",
    "SampleBatch",
    "sample",
    "decode_all",
    "sample_with_srt_rotation",
    "random_gauges",
    "samples_to_jsonl",
    "samples_from_jsonl",
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
    """The anneal kernel's C library, built and loaded on first use."""
    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except OSError as exc:
        # say, no compiler: cli.main would report a FileNotFoundError as an input error
        raise RuntimeError(
            f"cannot build or load the anneal kernel with C compiler {_CC!r}: {exc}") from exc
    i64 = ctypes.c_int64
    u32s, u64s, i64s, f64s, i8s = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                                   for t in (np.uint32, np.uint64, np.int64, np.float64, np.int8))
    head = [u32s, i64, i64, i64, i64, i64s, i64s]  # stream, sizes and CSR structure
    lib.cascor_anneal_float.argtypes = [*head, f64s, f64s, f64s, i8s]
    lib.cascor_anneal_int.argtypes = [*head, i64s, i64s, f64s, u64s, i64, i64s, i8s]
    lib.cascor_anneal_float.restype = lib.cascor_anneal_int.restype = None
    return lib


def _anneal(model: IsingModel, cfg: SamplerConfig) -> np.ndarray:
    """Final spins of every read, (reads, qubits) int8."""
    seed = operator.index(cfg.seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # SeedSequence's entropy words: the seed's 32-bit digits, least significant first
    shifts = range(0, max(seed.bit_length(), 1), 32)
    seed_words = np.array([seed >> shift & 0xFFFFFFFF for shift in shifts], dtype=np.uint32)
    n = model.num_qubits
    a = model.arrays
    two_betas = 2.0 * np.linspace(cfg.beta_start, cfg.beta_end, cfg.sweeps)
    spins = np.empty((cfg.num_reads, n), dtype=np.int8)
    head = (seed_words, len(seed_words), cfg.num_reads, n, cfg.sweeps, a.indptr, a.indices)
    if not model.is_integral():
        _kernel().cascor_anneal_float(*head, a.data, a.h, two_betas, spins)
        return spins
    # v = s_i * local is an exact integer, |v| <= vmax.  Scaling by 2 and negating
    # are exact, so np.exp of 2 beta * -k is the reference's exp(-beta * delta) bit
    # for bit; libm's exp is not (it differs in the last bit on some inputs).
    row_abs = np.diff(np.concatenate([[0], np.cumsum(np.abs(a.data))])[a.indptr])
    vmax = int(np.max(np.abs(a.h) + row_abs, initial=0))
    table = np.empty((cfg.sweeps, 0), dtype=np.uint64)
    if cfg.sweeps * (vmax + 1) * 8 <= _TABLE_BYTES:
        # u < p exactly when u's 53-bit integer is below ceil(p * 2**53)
        p = np.exp(np.outer(two_betas, -np.arange(vmax + 1)))
        table = np.ceil(np.ldexp(p, 53)).astype(np.uint64)
    _kernel().cascor_anneal_int(*head, a.data, a.h, two_betas, table, table.shape[1],
                                np.empty(n, dtype=np.int64), spins)
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


def samples_to_jsonl(
    runs: Sequence[SampleBatch], decoded: Sequence[list[Assignment | None]], gauged: bool
) -> str:
    """The sample JSONL text of runs: one line per read, run after run.

    decoded[g] is decode_all of runs[g]; when gauged, each line carries its
    run's index as its gauge tag.  Untagged lines all belong to gauge 0, so
    more than one run without gauged raises ValueError.
    """
    if not gauged and len(runs) > 1:
        raise ValueError(f"{len(runs)} runs need gauge tags; an untagged file holds one run")
    lines = []
    for gauge, (batch, solutions) in enumerate(zip(runs, decoded)):
        end = f', "gauge": {gauge}}}' if gauged else "}"
        # json's text for each energy (ints as digits, floats as their repr)
        energies = json.dumps(batch.energies.tolist())[1:-1].split(", ")
        # reads collapse onto few states, so each distinct row's text is built once
        row_texts: dict[tuple, str] = {}
        spin_texts = [row_texts.get(row) or row_texts.setdefault(row, str(list(row)))
                      for row in map(tuple, batch.spins.tolist())]
        bit_texts: dict[Assignment | None, str] = {}
        texts = [bit_texts.get(s) or bit_texts.setdefault(s, f'"{_bit_text(s)}"' if s else "null")
                 for s in solutions]
        rows = zip(spin_texts, energies, batch.core_time_us.tolist(),
                   batch.wall_time_us.tolist(), texts)
        lines += [
            f'{{"read": {r}, "spins": {spins}, "energy": {energy}, "core_time_us": {core}, '
            f'"wall_time_us": {wall}, "solution": {solution}{end}'
            for r, (spins, energy, core, wall, solution) in enumerate(rows)
        ]
    return "\n".join(lines) + "\n"


_SAMPLE_FIELDS = ("read", "spins", "energy", "core_time_us", "wall_time_us")
_sample_fields = operator.itemgetter(*_SAMPLE_FIELDS)


def samples_from_jsonl(text: str, num_qubits: int) -> list[SampleBatch]:
    """One SampleBatch per gauge tag of a sample JSONL text, in tag order.

    A line without a gauge tag belongs to gauge 0.  Raises ValueError unless
    every tag is an integer and each gauge's lines hold reads 0, 1, ... in
    order, num_qubits spins of +1 or -1, a numeric energy, and integer times
    that are non-negative and never decrease.  The solution field is not read.
    """
    runs: dict[int, list[tuple]] = {}
    for doc in _jsonl_objects(text):
        gauge = doc.get("gauge", 0)
        if type(gauge) is not int:
            raise ValueError(f"gauge tag {gauge!r} is not an integer")
        runs.setdefault(gauge, []).append(_sample_fields(doc))
    return [_batch_of_columns(dict(zip(_SAMPLE_FIELDS, zip(*runs[gauge]))), num_qubits, gauge)
            for gauge in sorted(runs)]


def _batch_of_columns(columns: dict[str, Sequence], num_qubits: int, gauge: int) -> SampleBatch:
    k = len(columns["read"])

    def column(name, shape=(k,), kinds="i"):
        return _column(columns[name], f"gauge {gauge} {name}", shape, kinds)

    if not np.array_equal(column("read"), np.arange(k)):
        raise ValueError(f"gauge {gauge} reads are not 0..{k - 1} in order")
    spins = column("spins", (k, num_qubits))
    if np.any(np.abs(spins) != 1):
        raise ValueError(f"gauge {gauge} spins must be +1 or -1")
    times = [column("core_time_us").astype(np.int64), column("wall_time_us").astype(np.int64)]
    if any(np.any(np.diff(t, prepend=0) < 0) for t in times):
        raise ValueError(f"gauge {gauge} times must be non-negative and never decrease")
    return SampleBatch(spins.astype(np.int8), column("energy", kinds="if"), *times)
