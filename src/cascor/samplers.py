"""Annealing-style stochastic sampler standing in for a quantum annealer.

Each read runs an independent Metropolis anneal from a uniform random state,
with the inverse temperature swept linearly between the configured endpoints.
Timing is bookkeeping, not measurement: every read costs a fixed core
duration (the hardware analog is 20 microseconds), and wallclock adds a
one-off programming time and a per-read readout time, all set in SamplerConfig.

A run comes back as one SampleBatch: the final spins of every read in a
single int8 array and the cumulative core and wall times, which the batch
checks as it is built (SamplerConfig keeps a run's clock below 2**63).
With a spin-reversal gauge, sample anneals apply_gauge(model, gauge) and reads
the spins back times the gauge before it builds the batch: batches hold logical spins.
Iterating a batch yields one SampleRecord per read, a row of plain Python
values.  The sample JSONL file is written whole by samples_to_jsonl, the
one place a read's energy is computed, and read back, every field checked, by
samples_from_jsonl; both hold the file as bytes, the kernel's buffer on the
way out and the file's own bytes on the way in.  The line layout lives in
the C library that anneals (below).  The writer groups each run's distinct
spins rows (SampleBatch.distinct_rows) once more across the runs, and builds
the spins, energy and solution text of each distinct row of the file once;
cascor_sample_lines joins those texts and each read's integers into its
line.  The reader's cascor_sample_scan checks bytes in the writer's exact
layout one by one and parses their integers and spins straight into arrays.
Any other file (other spacing, key order or line ends, blank lines,
non-ASCII characters) is decoded as UTF-8 and then line by line as JSON,
keeping a tuple of the five fields read from each line.  Both paths feed the
same checks, so a file reads the same, or fails with the same message,
either way.

A run's spins and decoded bits may take at most _native._RUN_BYTES, and so may
the gauges of an SRT rotation, the spins of all its runs together and a CNF's
clause masks (Cnf.masks, which decode_all evaluates the reads' variable bits
against); sample, decode_all, random_gauges and sample_with_srt_rotation raise
LimitError before allocating more, and SamplerConfig when it is built.

Determinism: read r consumes only its own RNG stream, the one numpy's
Generator(PCG64(SeedSequence((seed, r)))) gives: n draws of
integers(0, 2) for its initial spins, then one uniform per proposal, spin by
spin and sweep by sweep.  So read r depends only on (seed, r), and a k-read
run is the first k reads of any longer run.

The anneal runs in the C library of _anneal.c (_native._kernel).  It replays
each read's stream itself and sweeps the spins in order over the model's CSR
neighbour lists (IsingModel.arrays).  A flip with v = s_i * local >= 0 is
always accepted; otherwise it is accepted when u < exp(2 beta v).  The kernel has two loops:

- Integral models keep integer local fields, summed once per read and updated
  along a flipped spin's neighbour list on each accepted flip.  Integer sums
  are exact in any order, so v is the reference's v, and the probabilities
  come from a table numpy computes as exp(-2 beta k) for each sweep and each
  k up to the largest |local|: the very values the numpy reference loop
  (tests/conftest.py::slow_anneal) computes.  The table holds each p as the
  integer ceil(p * 2**53), and the kernel accepts when the 53-bit integer m
  of the uniform u = m / 2**53 is below it.  For an integer m, m < p * 2**53
  holds exactly when m < ceil(p * 2**53), and scaling by 2**53 (ldexp) is
  exact for every double in [0, 1], subnormals included, so the integer
  comparison is u < p bit for bit.  On x86-64 hosts with AVX-512F, DQ, VL,
  IFMA and VBMI this loop anneals sixteen reads at once, one per 32-bit
  vector lane of int32 local fields (the table cap keeps every field below
  2**17), each lane on its own read's stream; its spins are the
  one-read-at-a-time loop's bit for bit, and other hosts run that loop.
  Every loop seeds a read's stream the same way, one read at a time; the lane
  loop steps the sixteen streams with IFMA's 52-bit multiply-adds, eight at a
  time.  It compares the top 32 bits of m with those of the entry,
  min(entry >> 21, 2**32 - 1), which settles u < p whenever they differ, and
  takes the exact 53-bit comparison when they are equal.  When a sweep's row
  of the table has at most 32 entries, it holds those 32-bit entries in two
  registers, and else gathers them from memory (see _anneal.c).
- Float models sum each local field over its neighbour row at every
  proposal, since fields updated incrementally would drift from a row sum.

Float models, and integral models whose table would exceed _TABLE_BYTES,
run the float loop (the latter on float64 copies of their integer arrays,
whose sums stay exact below 2**53), which calls libm's exp.  That can differ
from numpy's in the last bit; like a float local field summed in another
order, it changes a spin only if a uniform falls within one ulp of its
acceptance probability.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import _native
from .compiler import PenaltyLayout
from .ising import Gauge, IsingModel, SpinState, apply_gauge, energies_of_states
from .sat import (
    Assignment,
    Cnf,
    _bit_text,
    _column,
    _derived_rng,
    _derived_seed,
    _falsified,
    _jsonl_objects,
)

__all__ = [
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

# Integral models whose acceptance table would exceed this many bytes run the float loop.
_TABLE_BYTES = 1 << 20


@dataclass(frozen=True)
class SamplerConfig:
    """One run's anneal schedule, seed and simulated clock, in integer microseconds.

    A read costs core_time_per_read_us of core time, and that plus
    per_read_readout_us of wallclock; programming_us is charged to the
    wallclock once, before the first read.  The run's last wall time,
    programming_us + num_reads * (core_time_per_read_us + per_read_readout_us),
    must be below 2**63, so that every time of the run fits int64.  LimitError
    when the anneal schedule, two floats per sweep, would pass the run size limit.
    """

    num_reads: int = 1000
    sweeps: int = 100
    beta_start: float = 0.1
    beta_end: float = 5.0
    seed: int = 0
    core_time_per_read_us: int = 20
    programming_us: int = 0
    per_read_readout_us: int = 0

    def __post_init__(self) -> None:
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not (0 < self.beta_start <= self.beta_end):
            raise ValueError("need 0 < beta_start <= beta_end")
        if not math.isfinite(2 * float(self.beta_end)):  # the kernels take 2 beta
            raise ValueError(f"2 * beta_end must be finite, not {2 * float(self.beta_end)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for name in ("core_time_per_read_us", "programming_us", "per_read_readout_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        clock = self.programming_us + self.num_reads * (self.core_time_per_read_us
                                                        + self.per_read_readout_us)
        if clock >= 2**63:
            raise ValueError(f"the run's clock would reach {clock} us, past int64's range")
        _native._check_run_size(self.sweeps, 8, "anneal schedule")


@dataclass(frozen=True)
class SampleRecord:
    """One annealing read: final spins and cumulative timing."""

    read_index: int
    spins: SpinState
    core_time_us: int
    wall_time_us: int


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """All reads of one sampling run; row r of every array belongs to read r.

    ``spins`` is (reads, qubits) int8 and ``core_time_us``/``wall_time_us``
    the int64 cumulative times after each read, non-negative and never
    decreasing (else ValueError).  All three are made read-only, so that
    distinct_rows, computed once per batch, stays the grouping of its rows.
    """

    spins: np.ndarray
    core_time_us: np.ndarray
    wall_time_us: np.ndarray

    def __post_init__(self) -> None:
        for name in ("core_time_us", "wall_time_us"):
            times = getattr(self, name)
            if times.dtype != np.int64 or times.shape != (len(self.spins),):
                raise ValueError(f"{name} must be int64 of shape ({len(self.spins)},)")
            before = np.concatenate([[0], times[:-1]])  # compared, never subtracted: no wrap
            down = np.flatnonzero(times < before)
            if down.size:
                raise ValueError(f"{name} times decrease at read {down[0]}, to {times[down[0]]}")
        for array in (self.spins, self.core_time_us, self.wall_time_us):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.spins)

    def __iter__(self) -> Iterator[SampleRecord]:
        rows = zip(self.spins.tolist(), self.core_time_us.tolist(), self.wall_time_us.tolist())
        for r, (spins, core, wall) in enumerate(rows):
            yield SampleRecord(r, tuple(spins), core, wall)

    @functools.cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """_distinct_rows of the reads' spins, computed once per batch."""
        return _distinct_rows(self.spins)


def _distinct_rows(spins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of one np.unique over spins rows packed into uint64 words.

    Distinct row k is row first[k], the first row to hold it, and row r is
    distinct row inverse[r]; rows of no spins are one distinct row, the empty one.
    """
    rows = _packed_rows(spins > 0)
    words = rows.shape[1]
    keys = rows[:, 0] if words == 1 else rows.view(np.dtype((np.void, 8 * words)))[:, 0]
    # return_index would take a stable sort, several times slower than the default
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, inverse, np.arange(len(keys)))
    return first, inverse


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """Bool rows as rows of little-endian uint64 words, bit j of a row holding its column j."""
    words = max(1, -(-bits.shape[1] // 64))  # a row of no columns is one zero word
    padded = np.zeros((len(bits), 64 * words), dtype=bool)
    padded[:, :bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _anneal(model: IsingModel, cfg: SamplerConfig) -> np.ndarray:
    """Final spins of every read, (reads, qubits) int8."""
    seed_words = _native._seed_words(cfg.seed)
    n = model.num_qubits
    a = model.arrays
    two_betas = 2.0 * np.linspace(cfg.beta_start, cfg.beta_end, cfg.sweeps)
    spins = np.empty((cfg.num_reads, n), dtype=np.int8)
    head = (seed_words, len(seed_words), cfg.num_reads, n, cfg.sweeps, a.indptr, a.indices)
    if model.is_integral():
        # v = s_i * local is an exact integer, |v| <= vmax.  Scaling by 2 and negating
        # are exact, so np.exp of 2 beta * -k is the reference's exp(-beta * delta) bit
        # for bit; libm's exp is not (it differs in the last bit on some inputs).
        row_abs = np.diff(np.concatenate([[0], np.cumsum(np.abs(a.data))])[a.indptr])
        vmax = int(np.max(np.abs(a.h) + row_abs, initial=0))
        if cfg.sweeps * (vmax + 1) * 8 <= _TABLE_BYTES:
            table = _acceptance_table(two_betas, vmax)
            # scratch for the lane loop: sixteen lanes' int32 fields and 16 bits of lane
            # spins, 66 of 72 bytes per qubit, 4 bytes per table entry for the top 32
            # bits of its 53, and 64 bytes to align the fields to a cache line
            scratch = np.empty(9 * n + 8 + (table.size + 1) // 2, dtype=np.int64)
            _native._kernel().cascor_anneal_int(*head, a.data, a.h, table, table.shape[1],
                                                scratch, spins)
            return spins
    # Integer sums below 2**53 are exact in float64, so an integral model past
    # the table cap gets the same v, uniform and exp call in the float loop.
    _native._kernel().cascor_anneal_float(*head, a.data.astype(np.float64, copy=False),
                                          a.h.astype(np.float64, copy=False), two_betas, spins)
    return spins


def _acceptance_table(two_betas: np.ndarray, vmax: int) -> np.ndarray:
    """(sweeps, vmax + 1) uint64 acceptance table: entry [t, k] is ceil(p * 2**53) for
    p = exp(-two_betas[t] * k), so a uniform u is below p exactly when its 53-bit
    integer is below the entry."""
    # A product past float64's range is -inf, whose exp is the reference's 0.
    with np.errstate(over="ignore"):
        p = np.exp(np.outer(two_betas, -np.arange(vmax + 1)))
    return np.ceil(np.ldexp(p, 53)).astype(np.uint64)


def sample(model: IsingModel, cfg: SamplerConfig, *, gauge: Gauge | None = None) -> SampleBatch:
    """Draw cfg.num_reads independent annealed samples with cumulative timing.

    With a gauge, the run anneals apply_gauge(model, gauge) and reads its
    spins back times the gauge, so the batch holds model's spins either way.
    Raises LimitError when the spins would pass the run size limit.
    """
    _native._check_run_size(cfg.num_reads, model.num_qubits, "spins")
    spins = _anneal(model if gauge is None else apply_gauge(model, gauge), cfg)
    if gauge is not None:  # read the programmed spins back in model's frame
        spins *= np.array(gauge, dtype=np.int8)
    reads_done = np.arange(1, cfg.num_reads + 1, dtype=np.int64)
    per_read_wall = cfg.core_time_per_read_us + cfg.per_read_readout_us
    return SampleBatch(
        spins,
        reads_done * cfg.core_time_per_read_us,
        cfg.programming_us + reads_done * per_read_wall,
    )


def decode_all(batch: SampleBatch, layout: PenaltyLayout, cnf: Cnf) -> list[Assignment | None]:
    """Variable-bit projection of every read, kept only where it satisfies the CNF.

    Ancilla consistency and sample energy are deliberately ignored; variables
    absent from every clause have no qubit and default to false.  Raises
    LimitError when the bits or clause masks would pass the run size limit.
    Each distinct spins row (SampleBatch.distinct_rows) is projected and checked
    (sat._falsified on Cnf.masks) once, and every read of a row gets its tuple.
    """
    _native._check_run_size(len(batch), cnf.num_vars, "decoded bits")
    first, inverse = batch.distinct_rows
    bits = np.zeros((len(first), cnf.num_vars), dtype=bool)
    var_to_qubit = layout.var_to_qubit
    bits[:, [v - 1 for v in var_to_qubit]] = batch.spins[first][:, list(var_to_qubit.values())] > 0
    hits = np.flatnonzero(~_falsified(_packed_rows(bits), cnf.masks))
    solutions = np.full(len(first), None, dtype=object)
    solutions[hits] = np.fromiter(map(tuple, bits[hits].tolist()), dtype=object, count=len(hits))
    return solutions[inverse].tolist()


_GAUGE_STREAM_TAG = 0x67617567  # keeps gauge draws off the per-read streams


def random_gauges(num_qubits: int, count: int, seed: int) -> list[Gauge]:
    """Deterministic random +/-1 gauges for SRT rotation runs.

    Raises LimitError, before drawing any, when count gauges of num_qubits
    would pass the run size limit.
    """
    _native._check_run_size(count, num_qubits, "gauges")
    rng = _derived_rng(seed, _GAUGE_STREAM_TAG)
    return [
        tuple(int(g) for g in (2 * rng.integers(0, 2, size=num_qubits) - 1))
        for _ in range(count)
    ]


def sample_with_srt_rotation(
    model: IsingModel, cfg: SamplerConfig, gauges: list[Gauge]
) -> list[SampleBatch]:
    """Run sample on model once per gauge, each run programmed with its gauge.

    A gauge changes only the streams: v = s_i * local_i is gauge-invariant,
    so run g is the plain anneal of model from g times its initial spins on
    the streams of _derived_seed(cfg.seed, g); only control errors fixed in
    hardware units would give gauges something to act on.

    Raises LimitError when the spins of every run together would pass the
    run size limit, and ValueError when a gauge's length is not the model's
    qubit count, both before the first run.
    """
    _native._check_run_size(len(gauges) * cfg.num_reads, model.num_qubits, "spins of every gauge")
    for gi, gauge in enumerate(gauges):
        if len(gauge) != model.num_qubits:
            raise ValueError(
                f"gauge {gi} has length {len(gauge)}, model has {model.num_qubits} qubits"
            )
    return [sample(model, replace(cfg, seed=_derived_seed(cfg.seed, gi)), gauge=gauge)
            for gi, gauge in enumerate(gauges)]


def samples_to_jsonl(model: IsingModel, runs: Sequence[SampleBatch],
                     decoded: Sequence[list[Assignment | None]], gauged: bool) -> bytes:
    """The sample JSONL file of runs of model, as ASCII bytes: one line per read, run after run.

    Each line's energy is model's energy of its spins.  decoded[g] is
    decode_all of runs[g]: one solution for the reads of each distinct spins
    row of the file, or ValueError.  The file's distinct rows come from each
    run's (SampleBatch.distinct_rows) grouped once more across the runs, and
    the texts of each are built once.  When gauged, each line carries its
    run's index as its gauge tag.  Untagged lines all belong to gauge 0, so
    more than one run without gauged raises ValueError.
    """
    if not gauged and len(runs) > 1:
        raise ValueError(f"{len(runs)} runs need gauge tags; an untagged file holds one run")
    lengths = [len(batch) for batch in runs]
    if lengths != [len(solutions) for solutions in decoded]:
        raise ValueError("decoded must hold one solution per read of each run")
    if not sum(lengths):
        return b"\n"
    run_rows, run_firsts, run_inverses, start, count = [], [], [], 0, 0
    for batch in runs:
        first, inverse = batch.distinct_rows
        run_rows.append(batch.spins[first])
        run_firsts.append(first + start)  # each run row's first read in the file
        run_inverses.append(inverse + count)
        start, count = start + len(batch), count + len(first)
    run_rows = np.concatenate(run_rows)
    first, inverse = _distinct_rows(run_rows)
    rows = inverse[np.concatenate(run_inverses)].astype(np.int64, copy=False)  # per read
    all_decoded = [solution for run_decoded in decoded for solution in run_decoded]
    solutions = [all_decoded[r] for r in np.concatenate(run_firsts)[first].tolist()]
    if [solutions[k] for k in rows.tolist()] != all_decoded:
        raise ValueError("decoded must hold one solution per distinct spins row of the file")
    distinct = run_rows[first]
    # cascor_sample_lines' texts: every distinct row's spins, then their energies in
    # json's text (ints as digits, floats as their repr), then their solutions
    texts = [*map(str, distinct.tolist()),
             *json.dumps(energies_of_states(model, distinct).tolist())[1:-1].split(", "),
             *(f'"{_bit_text(s)}"' if s else "null" for s in solutions)]
    offsets = np.cumsum([0, *map(len, texts)], dtype=np.int64)
    sizes = np.diff(offsets).reshape(3, -1).sum(axis=0)  # each row's three texts together
    reads = np.concatenate([np.arange(k) for k in lengths])
    cores, walls = (np.concatenate([getattr(b, name) for b in runs])
                    for name in ("core_time_us", "wall_time_us"))
    gauges = np.repeat(np.arange(len(runs)), lengths) if gauged else np.full(len(reads), -1)
    # a line's texts, and at most 200 bytes of keys and integers
    capacity = int(sizes[rows].sum()) + 200 * len(reads)
    out = np.empty(capacity, dtype=np.uint8)
    size = _native._kernel().cascor_sample_lines(len(reads), reads, cores, walls, gauges,
                                                 rows, len(distinct), "".join(texts).encode(),
                                                 offsets, out, capacity)
    if size < 0:
        raise RuntimeError("sample lines overran their buffer")
    return out[:size].tobytes()


_SAMPLE_FIELDS = ("read", "spins", "energy", "core_time_us", "wall_time_us")
_sample_fields = operator.itemgetter(*_SAMPLE_FIELDS)


def samples_from_jsonl(data: bytes, num_qubits: int) -> list[SampleBatch]:
    """One SampleBatch per gauge tag of a sample JSONL file's bytes, in tag order.

    A line without a gauge tag belongs to gauge 0.  Raises ValueError unless
    the k tags present are the integers 0..k-1, and each gauge's lines hold
    reads 0, 1, ... in order, num_qubits spins of +1 or -1, a finite numeric
    energy, and integer times that are non-negative and never decrease.  The
    energies are checked and then discarded; the solution field is not read.

    Bytes in the writer's own line layout are scanned by the C kernel
    (_writer_columns).  Any other bytes are decoded as strict UTF-8, with
    CRLF and lone CR line ends read as LF (as Path.read_text reads them), and
    go through the per-line JSON decoder.  Both feed the same checks, so a
    file reads the same either way.
    """
    runs = _writer_columns(data)
    if runs is None:
        runs = _json_columns(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    tags = sorted(runs)
    if tags != list(range(len(tags))):
        raise ValueError(f"{len(tags)} gauge tags run {tags[0]}..{tags[-1]}, "
                         f"not 0..{len(tags) - 1}")
    return [_batch_of_columns(runs[gauge], num_qubits, gauge) for gauge in tags]


def _json_columns(text: str) -> dict[int, dict[str, Sequence]]:
    """Each gauge's field columns, read line by line as JSON objects."""
    rows: dict[int, list[tuple]] = {}
    for doc in _jsonl_objects(text):
        gauge = doc.get("gauge", 0)
        if type(gauge) is not int:
            raise ValueError(f"gauge tag {gauge!r} is not an integer")
        rows.setdefault(gauge, []).append(_sample_fields(doc))
    return {gauge: dict(zip(_SAMPLE_FIELDS, zip(*rows[gauge]))) for gauge in rows}


def _writer_columns(raw: bytes) -> dict[int, dict[str, np.ndarray]] | None:
    """Each gauge's columns, but energy, of bytes in samples_to_jsonl's line layout, else None.

    The kernel's cascor_sample_scan checks the bytes one by one, so None
    comes back for bytes in any other layout (blank lines, CR, other spacing
    or key order, booleans, leading zeros, no final newline, non-ASCII
    bytes), and also when a line's spins row is not as wide as the
    first line's, an integer does not fit int64, or an energy is not a JSON
    number that json reads as an int64 or a finite float (NaN, 1e999, and
    integers of 19 digits or more all go to the JSON decoder).
    """
    lines = raw.count(b"\n")
    # the first line's spins, from its "[" to its "]", are one "1" each
    width = raw.count(b"1", raw.find(b"["), raw.find(b"]"))
    if lines * width > len(raw):  # each spin takes a byte of text at least
        return None
    ints = np.empty((4, lines), dtype=np.int64)
    spins = np.empty((lines, width), dtype=np.int8)
    if not _native._kernel().cascor_sample_scan(raw, len(raw), lines, width, ints, spins):
        return None
    read, core, wall, gauge = ints
    order = np.argsort(gauge, kind="stable")
    tags, starts = np.unique(gauge[order], return_index=True)
    return {tag: {"read": read[at], "spins": spins[at], "core_time_us": core[at],
                  "wall_time_us": wall[at]}
            for tag, at in zip(tags.tolist(), np.split(order, starts[1:]))}


def _batch_of_columns(columns: dict[str, Sequence], num_qubits: int, gauge: int) -> SampleBatch:
    k = len(columns["read"])

    def column(name, shape=(k,), kinds="i"):
        return _column(columns[name], f"gauge {gauge} {name}", shape, kinds)

    if not np.array_equal(column("read"), np.arange(k)):
        raise ValueError(f"gauge {gauge} reads are not 0..{k - 1} in order")
    spins = column("spins", (k, num_qubits))
    if np.any(np.abs(spins) != 1):
        raise ValueError(f"gauge {gauge} spins must be +1 or -1")
    times = [column(name).astype(np.int64) for name in ("core_time_us", "wall_time_us")]
    try:
        batch = SampleBatch(spins.astype(np.int8), *times)
    except ValueError as exc:  # the batch checks its own times
        raise ValueError(f"gauge {gauge} {exc}") from None
    if "energy" in columns:  # _writer_columns has checked it already
        if not np.isfinite(column("energy", kinds="if")).all():
            raise ValueError(f"gauge {gauge} energies must be finite numbers")
    return batch
