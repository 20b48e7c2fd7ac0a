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

Determinism: read r consumes only its own RNG stream, derived from the master
seed and r: n draws for its initial spins, then one uniform per proposal, spin
by spin and sweep by sweep.  The kernel anneals a chunk of reads together,
spin-major, and draws each read's uniforms a block of sweeps at a time, so the
spins are the same for any read chunk and any sweep block.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
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

_READ_CHUNK = 2048
# Byte cap on one chunk's block of pre-drawn uniforms (at least one sweep's worth).
_UNIFORMS_BYTES = 8 << 20


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


def _anneal_chunk(model: IsingModel, cfg: SamplerConfig, read_indices: range) -> np.ndarray:
    """Run one batch of reads; returns their final spins, (C, N) int8."""
    n = model.num_qubits
    count = len(read_indices)
    coupling = model.arrays.coupling
    h_f = model.arrays.h.astype(np.float64)

    # Each read's stream: n init draws, then one uniform per proposal, drawn a
    # block of sweeps at a time so the buffer stays within _UNIFORMS_BYTES.
    rngs = [_derived_rng(cfg.seed, r) for r in read_indices]
    states = np.empty((n, count), dtype=np.float64)  # spin-major: row i is spin i of every read
    for col, rng in enumerate(rngs):
        states[:, col] = 2.0 * rng.integers(0, 2, size=n) - 1.0
    block = max(1, min(cfg.sweeps, _UNIFORMS_BYTES // max(1, 8 * count * n)))
    uniforms = np.empty((count, block, n), dtype=np.float64)
    arg = np.empty(count, dtype=np.float64)
    accept = np.empty(count, dtype=bool)

    betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.sweeps)
    for s in range(cfg.sweeps):
        b = s % block
        if b == 0:
            width = min(block, cfg.sweeps - s)
            for row, rng in enumerate(rngs):
                rng.random(out=uniforms[row, :width])
        sweep_uniforms = uniforms[:, b].T.copy()
        two_beta = 2.0 * betas[s]
        for i in range(n):
            # Flipping spin i changes the energy by delta = -2 s_i (h_i + sum_j J_ij s_j)
            # and is accepted when u < exp(min(-beta * delta, 0)); that is 1 when
            # delta <= 0, above every uniform.  Scaling by 2 and by s_i = +/-1 is
            # exact, so 2 beta * s_i * local rounds exactly like -beta * delta.
            np.matmul(coupling[i], states, out=arg)
            arg += h_f[i]
            arg *= states[i]
            arg *= two_beta
            np.minimum(arg, 0.0, out=arg)
            np.exp(arg, out=arg)
            np.less(sweep_uniforms[i], arg, out=accept)
            np.negative(states[i], out=states[i], where=accept)
    return states.T.astype(np.int8, order="C")


def sample(model: IsingModel, cfg: SamplerConfig) -> SampleBatch:
    """Draw cfg.num_reads independent annealed samples with cumulative timing."""
    spins = np.concatenate([
        _anneal_chunk(model, cfg, range(start, min(start + _READ_CHUNK, cfg.num_reads)))
        for start in range(0, cfg.num_reads, _READ_CHUNK)
    ])
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
