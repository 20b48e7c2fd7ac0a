"""Solver-comparison analyses: distinct-solution timelines, crossover points,
solution-set overlap, and neighbor Hamming-distance diversity.

A timeline counts distinct solutions against a time axis.  The quantum-analog
stream has two axes (core annealing time and wallclock time); the classical
stream has wallclock only.  The crossover point is the smallest distinct-
solution count at which the classical curve's time drops to or below the
quantum curve's (ties favor the classical solver).  Each crossover also
carries its first-solution ratio t_c[0] / t_q[0]: the factor by which the
classical clock could be sped up before the outcome turns quantum_never_ahead.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Sequence

from .compiler import PenaltyLayout
from .sat import Assignment, Cnf

__all__ = [
    "DistinctTimeline",
    "CrossoverReport",
    "InstanceReport",
    "build_timeline",
    "distinct_solutions",
    "find_crossover",
    "overlap_fraction",
    "hamming_neighbor_distances",
    "summarize_instance",
    "report_csv_rows",
    "CSV_COLUMNS",
]

TimedSolution = tuple[float, Assignment]

SOURCE_QUANTUM_CORE = "quantum-core"
SOURCE_QUANTUM_WALL = "quantum-wall"
SOURCE_CLASSICAL_WALL = "classical-wall"

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


@dataclass(frozen=True)
class DistinctTimeline:
    """Monotone (time, distinct-count) curve; point k marks the k-th distinct solution."""

    points: tuple[tuple[float, int], ...]
    source: str

    def __post_init__(self) -> None:
        last_t = None
        for idx, (t, count) in enumerate(self.points):
            if count != idx + 1:
                raise ValueError("counts must increase by exactly 1 per point")
            if last_t is not None and t < last_t:
                raise ValueError("times must be monotone non-decreasing")
            last_t = t

    def final_count(self) -> int:
        return len(self.points)

    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    def to_json(self) -> dict:
        return {"source": self.source, "points": [[t, c] for t, c in self.points]}

    @classmethod
    def from_json(cls, doc: dict) -> "DistinctTimeline":
        return cls(tuple((p[0], int(p[1])) for p in doc["points"]), doc["source"])


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
        return {
            "outcome": self.outcome,
            "count": self.count,
            "time_us": self.time_us,
            "overlap_fraction": self.overlap_fraction,
            "first_solution_ratio": self.first_solution_ratio,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CrossoverReport":
        return cls(doc["outcome"], doc["count"], doc["time_us"], doc["overlap_fraction"],
                   doc["first_solution_ratio"])


def build_timeline(events: Iterable[TimedSolution], source: str) -> DistinctTimeline:
    """First occurrence of each distinct solution contributes one point; repeats are ignored."""
    points: list[tuple[float, int]] = []
    seen: set[Assignment] = set()
    last_t = None
    for t, solution in events:
        if last_t is not None and t < last_t:
            raise ValueError(f"event times decrease at t={t}")
        last_t = t
        if solution in seen:
            continue
        seen.add(solution)
        points.append((t, len(seen)))
    return DistinctTimeline(tuple(points), source)


def distinct_solutions(events: Iterable[TimedSolution]) -> list[Assignment]:
    """Distinct solutions in first-occurrence order."""
    seen: dict[Assignment, None] = {}
    for _, solution in events:
        if solution not in seen:
            seen[solution] = None
    return list(seen)


def find_crossover(q: DistinctTimeline, c: DistinctTimeline) -> CrossoverReport:
    """Compare time-to-m-distinct-solutions curves.

    quantum_never_ahead when the classical solver's first solution is no later
    than the quantum one's; otherwise cross_at the smallest m where the
    classical time is <= the quantum time; quantum_always_ahead when no such m
    exists within the comparable range.  Every outcome carries the
    first-solution ratio t_c[0] / t_q[0] (None when t_q[0] is 0).
    """
    if not q.points or not c.points:
        raise ValueError("crossover requires nonempty timelines")
    t_q, t_c = q.times(), c.times()
    ratio = t_c[0] / t_q[0] if t_q[0] else None
    if t_q[0] >= t_c[0]:
        return CrossoverReport("quantum_never_ahead", first_solution_ratio=ratio)
    for m in range(1, min(len(t_q), len(t_c)) + 1):
        if t_c[m - 1] <= t_q[m - 1]:
            return CrossoverReport("cross_at", count=m, time_us=t_c[m - 1],
                                   first_solution_ratio=ratio)
    return CrossoverReport("quantum_always_ahead", first_solution_ratio=ratio)


def overlap_fraction(a: Iterable[Assignment], b: Iterable[Assignment]) -> float:
    """Jaccard overlap |a & b| / |a | b|; zero when both sets are empty."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def hamming_neighbor_distances(solutions: Sequence[Assignment]) -> list[int]:
    """Bit distance between each consecutive pair of assignments."""
    out: list[int] = []
    for prev, cur in zip(solutions, solutions[1:]):
        if len(prev) != len(cur):
            raise ValueError("assignments have mismatched lengths")
        out.append(sum(x != y for x, y in zip(prev, cur)))
    return out


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

    @classmethod
    def from_json(cls, doc: dict | str) -> "InstanceReport":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(
            instance_id=doc["instance_id"],
            num_vars=int(doc["num_vars"]),
            num_clauses=int(doc["num_clauses"]),
            num_qubits=int(doc["num_qubits"]),
            timelines={k: DistinctTimeline.from_json(v) for k, v in doc["timelines"].items()},
            crossovers={
                k: (CrossoverReport.from_json(v) if v is not None else None)
                for k, v in doc["crossovers"].items()
            },
            hamming_classical=tuple(doc["hamming_classical"]),
            hamming_quantum_per_gauge=tuple(
                tuple(g) for g in doc["hamming_quantum_per_gauge"]
            ),
            no_solutions=bool(doc["no_solutions"]),
            metadata=doc["metadata"],
        )


def _with_overlap(
    report: CrossoverReport,
    q_ordered: list[Assignment],
    c_ordered: list[Assignment],
) -> CrossoverReport:
    if report.outcome != "cross_at":
        return report
    m = report.count
    frac = overlap_fraction(q_ordered[:m], c_ordered[:m])
    return replace(report, overlap_fraction=frac)


def summarize_instance(
    quantum_runs: Sequence,
    classical_events: Sequence,
    layout: PenaltyLayout,
    cnf: Cnf,
    instance_id: str = "",
) -> InstanceReport:
    """Aggregate one instance's quantum and classical streams into a report.

    ``quantum_runs`` holds one SampleBatch per gauge (a single batch for plain
    sampling); gauge runs are treated as executed back to back, so their
    time axes are offset cumulatively before merging into one quantum stream.
    ``classical_events`` are SolutionEvents from the enumerator.

    Both streams are compared over one solution space, the variables the
    formula uses: decoded reads and classical assignments are projected onto
    ``cnf.variables_used()`` before timelines, overlap and Hamming series are
    built (the decoder sets an unused variable to false, ALL-SAT yields both).
    """
    from .samplers import decode_all  # local import keeps module deps one-way

    used = set(cnf.variables_used())
    keep = [v in used for v in range(1, cnf.num_vars + 1)]

    def project(assignment: Assignment) -> Assignment:
        return tuple(compress(assignment, keep))

    core_stream: list[TimedSolution] = []
    wall_stream: list[TimedSolution] = []
    per_gauge_distinct: list[list[Assignment]] = []
    core_offset = 0
    wall_offset = 0
    for batch in quantum_runs:
        decoded = decode_all(batch, layout, cnf)
        core, wall = batch.core_time_us.tolist(), batch.wall_time_us.tolist()
        hits = [(r, project(s)) for r, s in enumerate(decoded) if s is not None]
        core_stream += [(core_offset + core[r], s) for r, s in hits]
        wall_stream += [(wall_offset + wall[r], s) for r, s in hits]
        per_gauge_distinct.append(distinct_solutions((core[r], s) for r, s in hits))
        if core:
            core_offset += core[-1]
            wall_offset += wall[-1]

    classical_stream: list[TimedSolution] = [
        (e.wall_time_us, project(e.assignment)) for e in classical_events
    ]

    timelines = {
        SOURCE_QUANTUM_CORE: build_timeline(core_stream, SOURCE_QUANTUM_CORE),
        SOURCE_QUANTUM_WALL: build_timeline(wall_stream, SOURCE_QUANTUM_WALL),
        SOURCE_CLASSICAL_WALL: build_timeline(classical_stream, SOURCE_CLASSICAL_WALL),
    }

    q_ordered = distinct_solutions(core_stream)
    c_ordered = distinct_solutions(classical_stream)

    crossovers: dict[str, CrossoverReport | None] = {}
    for axis, q_source in (("core", SOURCE_QUANTUM_CORE), ("wall", SOURCE_QUANTUM_WALL)):
        q_line = timelines[q_source]
        c_line = timelines[SOURCE_CLASSICAL_WALL]
        if not q_line.points or not c_line.points:
            crossovers[axis] = None
            continue
        crossovers[axis] = _with_overlap(find_crossover(q_line, c_line), q_ordered, c_ordered)

    hamming_per_gauge = tuple(
        tuple(hamming_neighbor_distances(distinct)) for distinct in per_gauge_distinct
    )

    return InstanceReport(
        instance_id=instance_id,
        num_vars=cnf.num_vars,
        num_clauses=len(cnf.clauses),
        num_qubits=layout.num_qubits,
        timelines=timelines,
        crossovers=crossovers,
        hamming_classical=tuple(hamming_neighbor_distances(c_ordered)),
        hamming_quantum_per_gauge=hamming_per_gauge,
        no_solutions=not c_ordered and not q_ordered,
        metadata={
            "overlap_denominator": "jaccard",
            "deduplicated": True,
            "num_gauges": len(per_gauge_distinct),
            "quantum_distinct": len(q_ordered),
            "classical_distinct": len(c_ordered),
        },
    )


def _mean(values: Sequence[int]) -> float | None:
    return sum(values) / len(values) if values else None


def report_csv_rows(report: InstanceReport) -> list[dict]:
    """Two plot-ready CSV rows per instance, one per crossover axis."""
    gauge_means = [
        _mean(series) for series in report.hamming_quantum_per_gauge
    ]
    gauge_cell = ";".join(
        "" if m is None else f"{m:.6g}" for m in gauge_means
    )
    classical_mean = _mean(report.hamming_classical)
    rows = []
    for axis in ("core", "wall"):
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
