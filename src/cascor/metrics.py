"""Solver-comparison analyses: distinct-solution timelines, crossover points,
solution-set overlap, and neighbor Hamming-distance diversity; and the one
writer of report JSON and CSV text.

Every analysis runs on assignment codes: unbounded Python ints whose bit
v-1 holds variable v (the enumerator's value layout), masked to the
variables the formula uses.

A timeline holds the time at which each distinct solution first appears:
times[k-1] is the time to k distinct solutions.  The quantum-analog stream
has two axes (core annealing time and wallclock time), which share its
first-occurrence reads; the classical stream has wallclock only.  Each
gauge's reads are grouped by spins row (SampleBatch.distinct_rows), so only
the first read of each distinct row is packed, and the stream's times are
the batches' own, which each SampleBatch checks as it is built; the
classical stream is scanned once, event by event.

The crossover point is the smallest distinct-solution count at which the
classical curve's time drops to or below the quantum curve's (ties favor
the classical solver).  Each crossover
also carries its first-solution ratio t_c[0] / t_q[0]: the factor by which
the classical clock could be sped up before the outcome turns
quantum_never_ahead.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import samplers
from .compiler import PenaltyLayout
from .sat import Assignment, Cnf

__all__ = [
    "DistinctTimeline",
    "CrossoverReport",
    "InstanceReport",
    "find_crossover",
    "overlap_fraction",
    "hamming_neighbor_distances",
    "summarize_instance",
    "report_csv_rows",
    "reports_csv_text",
    "CSV_COLUMNS",
    "CROSSOVER_AXES",
]

SOURCE_QUANTUM_CORE = "quantum-core"
SOURCE_QUANTUM_WALL = "quantum-wall"
SOURCE_CLASSICAL_WALL = "classical-wall"

# crossover axis -> the quantum timeline it compares with classical-wall
CROSSOVER_AXES = {"core": SOURCE_QUANTUM_CORE, "wall": SOURCE_QUANTUM_WALL}

CSV_COLUMNS = [
    "instance_id",
    "n",
    "num_clauses",
    "qubits",
    "crossover_axis",
    "crossover_count",
    "crossover_time_us",
    "first_solution_ratio",
    "overlap_jaccard",
    "hamming_mean_classical",
    "hamming_mean_quantum_per_gauge",
]


def _check_nondecreasing(times: Sequence[float], what: str) -> None:
    for a, b in zip([0, *times], times):  # a first time below 0 decreases from 0
        if b < a:
            raise ValueError(f"{what} times decrease at t={b}")


@dataclass(frozen=True)
class DistinctTimeline:
    """Time-to-k-distinct-solutions curve: times[k-1] is when solution k first appeared."""

    times: tuple[float, ...]
    source: str

    def __post_init__(self) -> None:
        _check_nondecreasing(self.times, self.source)

    def to_json(self) -> dict:
        return {"source": self.source, "points": [[t, k] for k, t in enumerate(self.times, 1)]}


@dataclass(frozen=True)
class CrossoverReport:
    """Where (if anywhere) the classical curve crosses under the quantum curve.

    ``first_solution_ratio`` is t_c[0] / t_q[0], None when t_q[0] is 0.
    """

    outcome: str  # cross_at | quantum_never_ahead | quantum_always_ahead
    count: int | None = None
    time_us: float | None = None
    overlap_fraction: float | None = None
    first_solution_ratio: float | None = None

    def __post_init__(self) -> None:
        if self.outcome == "cross_at":
            if self.count is None or self.count < 1 or self.time_us is None:
                raise ValueError("cross_at requires count >= 1 and a time")
        elif self.outcome in ("quantum_never_ahead", "quantum_always_ahead"):
            if self.count is not None or self.time_us is not None:
                raise ValueError(f"{self.outcome} carries no crossing point")
        else:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.overlap_fraction is not None and not 0 <= self.overlap_fraction <= 1:
            raise ValueError("overlap_fraction must be in [0, 1]")
        if self.first_solution_ratio is not None and not self.first_solution_ratio >= 0:
            raise ValueError("first_solution_ratio must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)


def find_crossover(q: DistinctTimeline, c: DistinctTimeline) -> CrossoverReport:
    """Compare time-to-m-distinct-solutions curves.

    quantum_never_ahead when the classical solver's first solution is no later
    than the quantum one's; otherwise cross_at the smallest m where the
    classical time is <= the quantum time; quantum_always_ahead when no such m
    exists within the comparable range.  Every outcome carries the
    first-solution ratio t_c[0] / t_q[0] (None when t_q[0] is 0).
    """
    t_q, t_c = q.times, c.times
    if not t_q or not t_c:
        raise ValueError("crossover requires nonempty timelines")
    ratio = t_c[0] / t_q[0] if t_q[0] else None
    if t_q[0] >= t_c[0]:
        return CrossoverReport("quantum_never_ahead", first_solution_ratio=ratio)
    for m in range(1, min(len(t_q), len(t_c)) + 1):
        if t_c[m - 1] <= t_q[m - 1]:
            return CrossoverReport("cross_at", count=m, time_us=t_c[m - 1],
                                   first_solution_ratio=ratio)
    return CrossoverReport("quantum_always_ahead", first_solution_ratio=ratio)


def overlap_fraction(a: Iterable[int], b: Iterable[int]) -> float:
    """Jaccard overlap |a & b| / |a | b|; zero when both sets are empty."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def hamming_neighbor_distances(codes: Sequence[int]) -> list[int]:
    """Bit distance between each consecutive pair of assignment codes."""
    return [(a ^ b).bit_count() for a, b in zip(codes, codes[1:])]


_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def _pack(assignment: Assignment) -> int:
    """The code of one of decode_all's bool tuples, before masking: bit v-1 holds variable v."""
    return int(b"0" + bytes(assignment[::-1]).translate(_BIT_CHARS), 2)


def _first_reads(batch, layout: PenaltyLayout, cnf: Cnf, mask: int) -> dict[int, int]:
    """Each distinct code of batch's satisfying reads, in read order, mapped to its first read.

    Only the first read of each distinct spins row is decoded into a code.
    """
    decoded = samplers.decode_all(batch, layout, cnf)
    found: dict[int, int] = {}
    for r in np.sort(batch.distinct_rows[0]).tolist():
        if decoded[r] is not None:
            found.setdefault(_pack(decoded[r]) & mask, r)
    return found


@dataclass(frozen=True)
class InstanceReport:
    """Per-instance aggregate of the timeline, crossover, overlap, and diversity views."""

    instance_id: str
    num_vars: int
    num_clauses: int
    num_qubits: int
    timelines: dict[str, DistinctTimeline]
    crossovers: dict[str, CrossoverReport | None]
    hamming_classical: tuple[int, ...]
    hamming_quantum_per_gauge: tuple[tuple[int, ...], ...]
    no_solutions: bool
    metadata: dict

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "num_qubits": self.num_qubits,
            "timelines": {k: v.to_json() for k, v in self.timelines.items()},
            "crossovers": {
                k: (v.to_json() if v is not None else None)
                for k, v in self.crossovers.items()
            },
            "hamming_classical": list(self.hamming_classical),
            "hamming_quantum_per_gauge": [list(g) for g in self.hamming_quantum_per_gauge],
            "no_solutions": self.no_solutions,
            "metadata": self.metadata,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def summarize_instance(
    quantum_runs: Sequence,
    classical_events: Sequence,
    layout: PenaltyLayout,
    cnf: Cnf,
    instance_id: str = "",
) -> InstanceReport:
    """Aggregate one instance's quantum and classical streams into a report.

    ``quantum_runs`` holds one SampleBatch per gauge (a single batch for plain
    sampling); gauge runs are treated as executed back to back, so each run's
    times are offset by the earlier runs' last times, summed, and the runs merge
    in one pass into one quantum stream, ordered since each batch's times are.
    ``classical_events`` are SolutionEvents from the enumerator.

    Both streams are compared over one solution space, the variables the
    formula uses: the first read of each distinct spins row is packed once
    into a code, and it and each event's code are masked to drop the unused
    variables (the decoder sets them to false, ALL-SAT yields both values).
    The events are taken as solutions: this does not check them.

    Raises ValueError when the events' times decrease.
    """
    mask = sum(1 << (v - 1) for v in cnf.variables_used())
    # gauge runs follow one another, so a code first seen in an earlier run keeps that read
    q_first: dict[int, tuple[int, int]] = {}
    hamming_per_gauge = []
    core_offset = wall_offset = 0
    for batch in quantum_runs:
        first = _first_reads(batch, layout, cnf, mask)
        hamming_per_gauge.append(tuple(hamming_neighbor_distances(list(first))))
        cores, walls = batch.core_time_us, batch.wall_time_us
        for code, r in first.items():
            if code not in q_first:
                q_first[code] = (core_offset + int(cores[r]), wall_offset + int(walls[r]))
        if len(batch):
            core_offset += int(cores[-1])
            wall_offset += int(walls[-1])
    _check_nondecreasing([e.wall_time_us for e in classical_events],
                         f"{SOURCE_CLASSICAL_WALL} event")
    c_first: dict[int, int] = {}  # each distinct code, in first-occurrence order: its time
    for e in classical_events:
        c_first.setdefault(e.code & mask, e.wall_time_us)
    q_ordered, c_ordered = list(q_first), list(c_first)
    timelines = {
        SOURCE_QUANTUM_CORE: DistinctTimeline(tuple(t for t, _ in q_first.values()),
                                              SOURCE_QUANTUM_CORE),
        SOURCE_QUANTUM_WALL: DistinctTimeline(tuple(t for _, t in q_first.values()),
                                              SOURCE_QUANTUM_WALL),
        SOURCE_CLASSICAL_WALL: DistinctTimeline(tuple(c_first.values()), SOURCE_CLASSICAL_WALL),
    }

    crossovers: dict[str, CrossoverReport | None] = dict.fromkeys(CROSSOVER_AXES)
    if q_ordered and c_ordered:
        for axis, q_source in CROSSOVER_AXES.items():
            crossing = find_crossover(timelines[q_source], timelines[SOURCE_CLASSICAL_WALL])
            if crossing.outcome == "cross_at":
                m = crossing.count
                overlap = overlap_fraction(q_ordered[:m], c_ordered[:m])
                crossing = replace(crossing, overlap_fraction=overlap)
            crossovers[axis] = crossing

    return InstanceReport(
        instance_id=instance_id,
        num_vars=cnf.num_vars,
        num_clauses=len(cnf.clauses),
        num_qubits=layout.num_qubits,
        timelines=timelines,
        crossovers=crossovers,
        hamming_classical=tuple(hamming_neighbor_distances(c_ordered)),
        hamming_quantum_per_gauge=tuple(hamming_per_gauge),
        no_solutions=not c_ordered and not q_ordered,
        metadata={
            "overlap_denominator": "jaccard",
            "deduplicated": True,
            "num_gauges": len(hamming_per_gauge),
            "quantum_distinct": len(q_ordered),
            "classical_distinct": len(c_ordered),
        },
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _mean(values: Sequence[int]) -> float | None:
    return sum(values) / len(values) if values else None


def report_csv_rows(report: InstanceReport) -> list[dict]:
    """Two plot-ready CSV rows per instance, one per crossover axis."""
    gauge_cell = ";".join(_csv_cell(_mean(series)) for series in report.hamming_quantum_per_gauge)
    classical_mean = _mean(report.hamming_classical)
    rows = []
    for axis in CROSSOVER_AXES:
        crossing = report.crossovers.get(axis)
        rows.append(
            {
                "instance_id": report.instance_id,
                "n": report.num_vars,
                "num_clauses": report.num_clauses,
                "qubits": report.num_qubits,
                "crossover_axis": axis,
                "crossover_count": crossing.count if crossing else None,
                "crossover_time_us": crossing.time_us if crossing else None,
                "first_solution_ratio": crossing.first_solution_ratio if crossing else None,
                "overlap_jaccard": crossing.overlap_fraction if crossing else None,
                "hamming_mean_classical": classical_mean,
                "hamming_mean_quantum_per_gauge": gauge_cell,
            }
        )
    return rows


def reports_csv_text(reports: Iterable[InstanceReport]) -> str:
    """The bench CSV: a CSV_COLUMNS header, then report_csv_rows of each report, CRLF-ended."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_csv_cell(row[col]) for col in CSV_COLUMNS]
                     for report in reports for row in report_csv_rows(report))
    return out.getvalue()
