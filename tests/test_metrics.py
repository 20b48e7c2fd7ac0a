import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascor.allsat import SolutionEvent, enumerate_all
from cascor.compiler import compile_cnf
from cascor.metrics import (
    DistinctTimeline,
    find_crossover,
    hamming_neighbor_distances,
    overlap_fraction,
    report_csv_rows,
    summarize_instance,
)
from cascor.samplers import SampleBatch, SamplerConfig, sample
from cascor.sat import Cnf

from conftest import batch_of, brute_force_solutions, random_small_cnf, slow_decode

# assignment codes: bit v-1 holds variable v
A = 0b000
B = 0b110
C = 0b111


def code(bits) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


def line(times, source="classical-wall"):
    return DistinctTimeline(tuple(times), source)


def test_timeline_invariants():
    with pytest.raises(ValueError):
        DistinctTimeline((10, 5), "classical-wall")
    assert DistinctTimeline((10, 10, 20), "classical-wall").to_json() == {
        "source": "classical-wall", "points": [[10, 1], [10, 2], [20, 3]]}


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


def test_first_solution_ratio_on_every_outcome():
    # t_c[0] / t_q[0]: how much faster the classical clock could run before
    # the outcome turns quantum_never_ahead
    q = line([10, 20, 30], "quantum-core")
    never = find_crossover(q, line([5, 50, 500]))
    assert never.outcome == "quantum_never_ahead" and never.first_solution_ratio == 0.5
    crossing = find_crossover(q, line([15, 20, 30]))
    assert crossing.outcome == "cross_at" and crossing.first_solution_ratio == 1.5
    always = find_crossover(line([1, 2, 3], "quantum-core"), line([5, 6, 7]))
    assert always.outcome == "quantum_always_ahead" and always.first_solution_ratio == 5.0
    # a quantum stream whose first solution costs no time leaves no finite ratio
    assert find_crossover(line([0, 1], "quantum-core"), line([0, 1])).first_solution_ratio is None


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
    assert hamming_neighbor_distances([A, B, C]) == [2, 1]
    assert hamming_neighbor_distances([A]) == []
    # codes are unbounded ints: no width limit at 64 bits
    assert hamming_neighbor_distances([0, (1 << 70) - 1, 1 << 69]) == [70, 69]


def test_hamming_permutation_invariance():
    sols = [(True, False, True, False), (False, False, True, True), (True, True, False, False)]
    perm = [2, 0, 3, 1]
    permuted = [tuple(s[p] for p in perm) for s in sols]
    assert hamming_neighbor_distances([code(s) for s in sols]) == hamming_neighbor_distances(
        [code(s) for s in permuted])


def _fixture_instance():
    cnf = Cnf.of(2, [[1, 2]])
    model, layout = compile_cnf(cnf)
    return cnf, model, layout


def test_summarize_qualitative_fixture():
    """Controlled timings: quantum-core ahead early then classical catches;
    quantum-wall (100x overhead) behind from the start."""
    cnf, model, layout = _fixture_instance()
    tt, tf, ft = (1, 1), (1, -1), (-1, 1)
    batch = batch_of([tt, tt, tf, ft], [20, 40, 60, 80], [2020, 4040, 6060, 8080])
    events = [
        SolutionEvent(1, 50, 0b11),
        SolutionEvent(2, 55, 0b10),
        SolutionEvent(3, 60, 0b01),
    ]
    report = summarize_instance([batch], events, layout, cnf, instance_id="fx")
    assert report.timelines["quantum-core"].times == (20, 60, 80)
    assert report.timelines["classical-wall"].times == (50, 55, 60)
    core = report.crossovers["core"]
    assert core.outcome == "cross_at" and core.count == 2
    assert core.time_us == 55
    # overlap of first-2 sets: q={TT,TF}, c={TT,FT} -> 1 shared of 3
    assert core.overlap_fraction == pytest.approx(1 / 3)
    assert report.crossovers["wall"].outcome == "quantum_never_ahead"
    assert report.no_solutions is False
    assert report.hamming_classical == (1, 2)


def test_summarize_deduplicates_repeats():
    cnf, model, layout = _fixture_instance()
    tt, tf = (1, 1), (1, -1)
    batch = batch_of([tt, tt, tf, tt, tf], [10, 20, 30, 40, 50], [110, 120, 130, 140, 150])
    events = [SolutionEvent(1, 10, 0b11), SolutionEvent(2, 20, 0b11),
              SolutionEvent(3, 30, 0b10)]
    report = summarize_instance([batch], events, layout, cnf)
    assert report.timelines["quantum-core"].times == (10, 30)
    assert report.timelines["quantum-wall"].times == (110, 130)
    assert report.timelines["classical-wall"].times == (10, 30)
    assert report.metadata["quantum_distinct"] == report.metadata["classical_distinct"] == 2
    assert report.hamming_quantum_per_gauge == ((1,),)


def test_summarize_empty_streams():
    cnf, model, layout = _fixture_instance()
    report = summarize_instance([], [], layout, cnf)
    assert {k: v.times for k, v in report.timelines.items()} == {
        "quantum-core": (), "quantum-wall": (), "classical-wall": ()}
    assert report.crossovers == {"core": None, "wall": None}
    assert report.no_solutions is True and report.metadata["num_gauges"] == 0


def _streams_with_a_decrease(stream):
    """Runs and events whose times decrease only in stream (None: nowhere).

    Each decrease falls between two reads, or two events, of the same
    solution, so the first-occurrence times alone never decrease.
    """
    tt, tf = (1, 1), (1, -1)
    core, wall, last_event = [10, 20, 30], [110, 120, 130], 40
    runs = []
    if stream == "core":
        core[2] = 15
    elif stream == "wall":
        wall[2] = 115
    elif stream == "classical":
        last_event = 20
    elif stream == "gauge-offset":  # the second gauge starts before the first one ends
        runs.append(batch_of([tf], [-5], [0]))
    runs.insert(0, batch_of([tt, tf, tf], core, wall))
    events = [SolutionEvent(1, 10, 0b11), SolutionEvent(2, 30, 0b10),
              SolutionEvent(3, last_event, 0b10)]
    return runs, events


@pytest.mark.parametrize("stream", ["core", "wall", "classical", "gauge-offset"])
def test_summarize_rejects_decreasing_times(stream):
    cnf, model, layout = _fixture_instance()
    summarize_instance(*_streams_with_a_decrease(None), layout, cnf)
    with pytest.raises(ValueError, match="times decrease"):
        summarize_instance(*_streams_with_a_decrease(stream), layout, cnf)


def test_summarize_unsat_flags_empty():
    cnf = Cnf.of(1, [[1], [-1]])
    model, layout = compile_cnf(cnf)
    batch = batch_of([(1,)], [20], [20])
    report = summarize_instance([batch], [], layout, cnf, instance_id="unsat")
    assert report.no_solutions is True
    assert report.timelines["quantum-core"].times == ()
    assert report.crossovers == {"core": None, "wall": None}
    assert report.hamming_classical == ()


def test_summarize_gauge_streams_offset_and_split():
    cnf, model, layout = _fixture_instance()
    tt, tf = (1, 1), (1, -1)
    run0 = batch_of([tt, tt], [20, 40], [2020, 4040])
    run1 = batch_of([tf, tt], [20, 40], [2020, 4040])
    events = [SolutionEvent(1, 30, 0b11)]
    report = summarize_instance([run0, run1], events, layout, cnf)
    # second gauge's reads land after the first run on the merged axis
    assert report.timelines["quantum-core"].times == (20, 60)
    assert len(report.hamming_quantum_per_gauge) == 2
    assert report.hamming_quantum_per_gauge[0] == ()
    assert report.hamming_quantum_per_gauge[1] == (1,)
    assert report.metadata["num_gauges"] == 2


def test_report_roundtrip_and_csv():
    cnf, model, layout = _fixture_instance()
    batch = batch_of([(1, 1), (1, -1)], [20, 40], [2020, 4040])
    events = [
        SolutionEvent(1, 15, 0b11),
        SolutionEvent(2, 25, 0b10),
    ]
    report = summarize_instance([batch], events, layout, cnf, instance_id="rt")
    assert json.loads(report.to_json_text()) == report.to_json()

    rows = report_csv_rows(report)
    assert [r["crossover_axis"] for r in rows] == ["core", "wall"]
    assert all(r["instance_id"] == "rt" for r in rows)
    assert rows[0]["n"] == 2 and rows[0]["qubits"] == 2
    # core: t_c[0] = 15 against t_q[0] = 20; wall: 15 against 2020
    assert rows[0]["first_solution_ratio"] == 0.75
    assert rows[1]["first_solution_ratio"] == 15 / 2020
    assert report.crossovers["core"].first_solution_ratio == 0.75


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
    assert len(report.timelines["classical-wall"].times) == 4
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
    core = np.arange(1, reads + 1, dtype=np.int64)
    wall = 100 + 3 * core
    batch = SampleBatch(spins, core, wall)
    result = enumerate_all(cnf, cap=1 << cnf.num_vars)
    events = list(result.events)
    used = cnf.variables_used()

    # the tuple reference: project every read and event, then dedupe
    def project(assignment):
        return tuple(assignment[v - 1] for v in used)

    def first_times(stream):
        first = {}
        for t, a in stream:
            first.setdefault(a, t)
        return first

    def tuple_hamming(seq):
        return tuple(sum(x != y for x, y in zip(p, q)) for p, q in zip(seq, seq[1:]))

    truth = {project(a) for a in brute_force_solutions(cnf)}
    decoded = slow_decode(spins.tolist(), layout, cnf)
    hits = [(r, project(a)) for r, a in enumerate(decoded) if a is not None]
    q_core = first_times((core[r].item(), a) for r, a in hits)
    q_wall = first_times((wall[r].item(), a) for r, a in hits)
    c_first = first_times((e.wall_time_us, project(a))
                          for e, a in zip(events, result.assignments()))
    report = summarize_instance([batch], events, layout, cnf)
    assert report.metadata["classical_distinct"] == len(truth) == len(c_first)
    assert report.metadata["quantum_distinct"] == len(q_core)
    assert set(q_core) <= truth
    assert report.timelines["quantum-core"].times == tuple(q_core.values())
    assert report.timelines["quantum-wall"].times == tuple(q_wall.values())
    assert report.timelines["classical-wall"].times == tuple(c_first.values())
    assert report.hamming_classical == tuple_hamming(list(c_first))
    assert report.hamming_quantum_per_gauge == (tuple_hamming(list(q_core)),)
    # Feeding the decoded reads to the classical side as well adds nothing:
    # the report counts both streams in one space.
    last = events[-1].wall_time_us if events else 0
    found = [a for a in decoded if a is not None]
    extra = [SolutionEvent(len(events) + i + 1, last, code(a)) for i, a in enumerate(found)]
    widened = summarize_instance([batch], events + extra, layout, cnf)
    assert widened.metadata["classical_distinct"] == len(truth)


def test_summary_codes_have_no_width_limit():
    # 70 used variables in 35 pair clauses (x_{2k-1} or x_{2k}), plus one unused
    n = 70
    cnf = Cnf.of(n + 1, [[2 * k + 1, 2 * k + 2] for k in range(n // 2)])
    model, layout = compile_cnf(cnf)
    assert model.num_qubits == n

    def read(bits):  # a read that decodes to bits over variables 1..n
        spins = [0] * model.num_qubits
        for var, q in layout.var_to_qubit.items():
            spins[q] = 1 if bits[var - 1] else -1
        return spins

    ones = (True,) * n
    odd = tuple(v % 2 == 1 for v in range(1, n + 1))  # one true per clause
    even = tuple(not b for b in odd)
    batch = batch_of([read(ones), read(odd), read(ones), read(even)],
                     [20, 40, 60, 80], [20, 40, 60, 80])
    # ALL-SAT yields both values of the unused variable n + 1
    events = [SolutionEvent(1, 10, code(odd + (False,))),
              SolutionEvent(2, 30, code(odd + (True,))),
              SolutionEvent(3, 50, code(ones + (True,)))]
    report = summarize_instance([batch], events, layout, cnf)
    assert report.timelines["quantum-core"].times == (20, 40, 80)
    assert report.timelines["classical-wall"].times == (10, 50)
    assert report.hamming_quantum_per_gauge == ((35, 70),)
    assert report.hamming_classical == (35,)
    assert report.crossovers["core"].outcome == "quantum_never_ahead"
    assert report.metadata["quantum_distinct"] == 3
    assert report.metadata["classical_distinct"] == 2
