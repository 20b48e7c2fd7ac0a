import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascor.allsat import SolutionEvent, enumerate_all
from cascor.compiler import compile_cnf
from cascor.metrics import (
    DistinctTimeline,
    InstanceReport,
    build_timeline,
    distinct_solutions,
    find_crossover,
    hamming_neighbor_distances,
    overlap_fraction,
    report_csv_rows,
    summarize_instance,
)
from cascor.samplers import SampleBatch, SampleRecord, SamplerConfig, sample
from cascor.sat import Cnf

from conftest import brute_force_solutions, random_small_cnf, slow_decode

A = (False, False, False)
B = (False, True, True)
C = (True, True, True)


def line(times, source="classical-wall"):
    return DistinctTimeline(tuple((t, i + 1) for i, t in enumerate(times)), source)


def test_build_timeline_dedup():
    timeline = build_timeline([(10, A), (20, A), (30, B)], "classical-wall")
    assert timeline.points == ((10, 1), (30, 2))


def test_build_timeline_empty():
    assert build_timeline([], "quantum-core").points == ()


def test_build_timeline_rejects_decreasing_times():
    with pytest.raises(ValueError):
        build_timeline([(10, A), (5, B)], "quantum-core")


def test_timeline_invariants():
    with pytest.raises(ValueError):
        DistinctTimeline(((10, 1), (20, 3)), "classical-wall")
    with pytest.raises(ValueError):
        DistinctTimeline(((10, 1), (5, 2)), "classical-wall")


def test_distinct_solutions_order():
    assert distinct_solutions([(1, B), (2, A), (3, B), (4, C)]) == [B, A, C]


def test_crossover_step_function_example():
    # quantum reaches solution m at m us; classical at 5 + 0.1(m-1) us
    q = line([float(m) for m in range(1, 11)], "quantum-core")
    c = line([5 + 0.1 * (m - 1) for m in range(1, 11)])
    report = find_crossover(q, c)
    assert report.outcome == "cross_at"
    assert report.count == 6
    assert report.time_us == pytest.approx(5.5)


def test_crossover_never_ahead():
    q = line([10, 20, 30], "quantum-core")
    c = line([5, 50, 500])
    assert find_crossover(q, c).outcome == "quantum_never_ahead"


def test_crossover_tie_resolves_to_classical():
    q = line([10, 20, 30], "quantum-core")
    assert find_crossover(q, line([10, 20, 30])).outcome == "quantum_never_ahead"
    # identical first times count as the classical curve being there first
    q2 = line([5, 20, 30], "quantum-core")
    report = find_crossover(q2, line([9, 20, 30]))
    assert report.outcome == "cross_at" and report.count == 2 and report.time_us == 20


def test_crossover_always_ahead():
    q = line([1, 2, 3], "quantum-core")
    c = line([5, 6, 7])
    assert find_crossover(q, c).outcome == "quantum_always_ahead"


def test_crossover_rescaling_invariance():
    q = line([3, 9, 27], "quantum-core")
    c = line([7, 8, 30])
    base = find_crossover(q, c)
    for factor in (0.5, 2.0, 1000.0):
        scaled = find_crossover(
            line([t * factor for t in (3, 9, 27)], "quantum-core"),
            line([t * factor for t in (7, 8, 30)]),
        )
        assert scaled.outcome == base.outcome and scaled.count == base.count


def test_crossover_requires_nonempty():
    with pytest.raises(ValueError):
        find_crossover(line([], "quantum-core"), line([1]))


def test_overlap_fraction():
    assert overlap_fraction([], []) == 0.0
    assert overlap_fraction({A}, {B}) == 0.0
    assert overlap_fraction({A, B}, {A, B}) == 1.0
    assert overlap_fraction({A, B}, {B, C}) == pytest.approx(1 / 3)
    # symmetry and monotone dilution
    assert overlap_fraction({A, B}, {B, C}) == overlap_fraction({B, C}, {A, B})
    assert overlap_fraction({A}, {A, B}) <= overlap_fraction({A}, {A})


def test_hamming_neighbor_distances():
    sols = [
        (False, False, False),
        (False, True, True),
        (True, True, True),
    ]
    assert hamming_neighbor_distances(sols) == [2, 1]
    assert hamming_neighbor_distances(sols[:1]) == []
    with pytest.raises(ValueError):
        hamming_neighbor_distances([(False,), (False, True)])


def test_hamming_permutation_invariance():
    sols = [(True, False, True, False), (False, False, True, True), (True, True, False, False)]
    perm = [2, 0, 3, 1]
    permuted = [tuple(s[p] for p in perm) for s in sols]
    assert hamming_neighbor_distances(sols) == hamming_neighbor_distances(permuted)


def _record(read, spins, core, wall):
    return SampleRecord(read, spins, 0, core, wall)


def _fixture_instance():
    cnf = Cnf.of(2, [[1, 2]])
    model, layout = compile_cnf(cnf)
    return cnf, model, layout


def test_summarize_qualitative_fixture():
    """Controlled timings: quantum-core ahead early then classical catches;
    quantum-wall (100x overhead) behind from the start."""
    cnf, model, layout = _fixture_instance()
    tt, tf, ft = (1, 1), (1, -1), (-1, 1)
    records = [
        _record(0, tt, 20, 2020),
        _record(1, tt, 40, 4040),
        _record(2, tf, 60, 6060),
        _record(3, ft, 80, 8080),
    ]
    events = [
        SolutionEvent(1, 50, (True, True)),
        SolutionEvent(2, 55, (False, True)),
        SolutionEvent(3, 60, (True, False)),
    ]
    report = summarize_instance([SampleBatch.of(records)], events, layout, cnf, instance_id="fx")
    assert report.timelines["quantum-core"].points == ((20, 1), (60, 2), (80, 3))
    assert report.timelines["classical-wall"].points == ((50, 1), (55, 2), (60, 3))
    core = report.crossovers["core"]
    assert core.outcome == "cross_at" and core.count == 2
    assert core.time_us == 55
    # overlap of first-2 sets: q={TT,TF}, c={TT,FT} -> 1 shared of 3
    assert core.overlap_fraction == pytest.approx(1 / 3)
    assert report.crossovers["wall"].outcome == "quantum_never_ahead"
    assert report.no_solutions is False
    assert report.hamming_classical == (1, 2)


def test_summarize_unsat_flags_empty():
    cnf = Cnf.of(1, [[1], [-1]])
    model, layout = compile_cnf(cnf)
    records = [_record(0, (1,), 20, 20)]
    report = summarize_instance([SampleBatch.of(records)], [], layout, cnf, instance_id="unsat")
    assert report.no_solutions is True
    assert report.timelines["quantum-core"].points == ()
    assert report.crossovers == {"core": None, "wall": None}
    assert report.hamming_classical == ()


def test_summarize_gauge_streams_offset_and_split():
    cnf, model, layout = _fixture_instance()
    tt, tf = (1, 1), (1, -1)
    run0 = [_record(0, tt, 20, 2020), _record(1, tt, 40, 4040)]
    run1 = [_record(0, tf, 20, 2020), _record(1, tt, 40, 4040)]
    events = [SolutionEvent(1, 30, (True, True))]
    report = summarize_instance([SampleBatch.of(run0), SampleBatch.of(run1)], events, layout, cnf)
    # second gauge's reads land after the first run on the merged axis
    assert report.timelines["quantum-core"].points == ((20, 1), (60, 2))
    assert len(report.hamming_quantum_per_gauge) == 2
    assert report.hamming_quantum_per_gauge[0] == ()
    assert report.hamming_quantum_per_gauge[1] == (1,)
    assert report.metadata["num_gauges"] == 2


def test_report_roundtrip_and_csv():
    cnf, model, layout = _fixture_instance()
    records = [_record(0, (1, 1), 20, 2020), _record(1, (1, -1), 40, 4040)]
    events = [
        SolutionEvent(1, 15, (True, True)),
        SolutionEvent(2, 25, (False, True)),
    ]
    report = summarize_instance([SampleBatch.of(records)], events, layout, cnf, instance_id="rt")
    back = InstanceReport.from_json(json.loads(report.to_json_text()))
    assert back == report

    rows = report_csv_rows(report)
    assert [r["crossover_axis"] for r in rows] == ["core", "wall"]
    assert all(r["instance_id"] == "rt" for r in rows)
    assert rows[0]["n"] == 2 and rows[0]["qubits"] == 2


def test_summarize_compares_over_used_variables():
    # Variable 4 occurs in no clause: ALL-SAT yields 8 full assignments, but
    # over the used variables 1..3 there are only 4 solutions.
    cnf = Cnf.of(4, [[1, 2], [-1, 3]])
    model, layout = compile_cnf(cnf)
    events = enumerate_all(cnf, cap=100).events
    assert len(events) == 8
    batch = sample(model, SamplerConfig(num_reads=200, sweeps=20, seed=5))
    report = summarize_instance([batch], events, layout, cnf)
    assert report.metadata["classical_distinct"] == 4
    assert report.metadata["quantum_distinct"] == 4
    assert len(report.timelines["classical-wall"].points) == 4
    assert len(report.hamming_classical) == 3


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    m=st.integers(1, 6),
    pad=st.integers(0, 3),
    reads=st.integers(1, 16),
)
def test_summary_solution_space_is_the_used_variable_projection(seed, n, m, pad, reads):
    rng = np.random.default_rng(seed)
    cnf = Cnf(n + pad, random_small_cnf(rng, n=n, m=m).clauses)
    model, layout = compile_cnf(cnf)
    spins = (2 * rng.integers(0, 2, size=(reads, model.num_qubits)) - 1).astype(np.int8)
    times = np.arange(1, reads + 1, dtype=np.int64)
    batch = SampleBatch(spins, np.zeros(reads, np.int64), times, times)
    events = list(enumerate_all(cnf, cap=1 << cnf.num_vars).events)
    used = cnf.variables_used()

    def project(assignment):
        return tuple(assignment[v - 1] for v in used)

    truth = {project(a) for a in brute_force_solutions(cnf)}
    decoded = [a for a in slow_decode(spins.tolist(), layout, cnf) if a is not None]
    quantum = {project(a) for a in decoded}
    report = summarize_instance([batch], events, layout, cnf)
    assert report.metadata["classical_distinct"] == len(truth)
    assert report.metadata["quantum_distinct"] == len(quantum)
    assert quantum <= truth
    # Feeding the decoded reads to the classical side as well adds nothing:
    # the report counts both streams in one space.
    last = events[-1].wall_time_us if events else 0
    extra = [SolutionEvent(len(events) + i + 1, last, a) for i, a in enumerate(decoded)]
    widened = summarize_instance([batch], events + extra, layout, cnf)
    assert widened.metadata["classical_distinct"] == len(truth)
