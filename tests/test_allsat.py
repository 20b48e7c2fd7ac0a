import hashlib
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascor.allsat as allsat_mod
from cascor.allsat import (
    EnumerationResult,
    SolutionEvent,
    count_solutions_capped,
    enumerate_all,
    events_from_jsonl,
    events_to_jsonl,
)
from cascor.sat import Cnf, MixedSatSpec, evaluate, generate_mixed_sat

from conftest import brute_force_solutions, random_small_cnf, slow_enumerate


def test_simple_pair_clause():
    result = enumerate_all(Cnf.of(2, [[1, 2]]), cap=10)
    assert result.complete and not result.cap_hit
    assert len(result.events) == 3
    assert set(result.assignments()) == {(True, True), (True, False), (False, True)}


def test_contradiction_is_empty_and_complete():
    result = enumerate_all(Cnf.of(1, [[1], [-1]]), cap=10)
    assert result.complete
    assert result.events == ()


def test_matches_brute_force(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        cnf = random_small_cnf(rng, n=n, m=int(rng.integers(0, 7)))
        result = enumerate_all(cnf, cap=1 << n)
        assert result.complete
        found = result.assignments()
        assert len(set(found)) == len(found)  # no duplicates
        assert set(found) == brute_force_solutions(cnf)


def test_matches_brute_force_larger(rng):
    for _ in range(6):
        cnf = random_small_cnf(rng, n=16, m=14, max_k=5)
        result = enumerate_all(cnf, cap=1 << 16)
        assert result.complete
        assert set(result.assignments()) == brute_force_solutions(cnf)


def test_soundness(rng):
    cnf = random_small_cnf(rng, n=10, m=8)
    result = enumerate_all(cnf, cap=2000)
    for event in result.events:
        assert evaluate(cnf, event.assignment)


def test_timestamps_and_indices_monotone(rng):
    cnf = random_small_cnf(rng, n=8, m=4)
    result = enumerate_all(cnf, cap=300)
    last = -1
    for pos, event in enumerate(result.events, start=1):
        assert event.index == pos
        assert event.wall_time_us >= last
        last = event.wall_time_us


def test_cap_semantics():
    # 2^6 = 64 solutions of the empty formula exceed a cap of 10
    result = enumerate_all(Cnf(6), cap=10)
    assert result.cap_hit and not result.complete
    assert len(result.events) == 10
    assert count_solutions_capped(Cnf(6), 10) is None
    assert count_solutions_capped(Cnf.of(2, [[1, 2]]), 10) == 3
    assert count_solutions_capped(Cnf.of(1, [[1], [-1]]), 10) == 0


def test_exact_cap_count_is_complete():
    # (x1 or x2) has exactly 3 solutions; cap == 3 still finishes the search.
    result = enumerate_all(Cnf.of(2, [[1, 2]]), cap=3)
    assert result.complete and not result.cap_hit
    assert len(result.events) == 3


def test_time_budget_expiry():
    # Empty formula over 24 vars has 16M models; a microsecond budget cannot finish.
    result = enumerate_all(Cnf(24), cap=10_000_000, time_budget_us=1000)
    assert not result.complete and not result.cap_hit


def test_free_variables_enumerated():
    # var 2 appears in no clause but still spans both polarities
    cnf = Cnf.of(3, [[1, 3]])
    result = enumerate_all(cnf, cap=100)
    assert result.complete
    assert set(result.assignments()) == brute_force_solutions(cnf)
    assert len(result.events) == 6


def test_invalid_cap():
    with pytest.raises(ValueError):
        enumerate_all(Cnf(2), cap=0)


def test_result_invariant():
    with pytest.raises(ValueError):
        EnumerationResult((), complete=True, cap_hit=True)


def test_event_json_roundtrip():
    events = [SolutionEvent(1, 0, (True, False, True)), SolutionEvent(2, 152, (False, False, True))]
    text = events_to_jsonl(events)
    assert text.splitlines()[1] == json.dumps({"index": 2, "wall_time_us": 152, "assignment": "001"})
    assert text.endswith("\n") and events_from_jsonl(text, 3) == events
    assert events_to_jsonl([]) == "" and events_from_jsonl("", 3) == []


@st.composite
def cnf_and_cap(draw, num_vars):
    """A CNF over variables 1..n (some maybe unused), clause lengths 1..n, and a cap in 1..2**n+1."""
    n = draw(num_vars)
    clauses = []
    for _ in range(draw(st.integers(0, 8)) if n else 0):
        variables = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, n))]
        clauses.append([v if draw(st.booleans()) else -v for v in variables])
    return Cnf.of(n, clauses), draw(st.integers(1, (1 << n) + 1))


def _capped_truth(cnf, cap):
    count = len(brute_force_solutions(cnf))
    return count if count <= cap else None


@settings(max_examples=150, deadline=None)
@given(cnf_and_cap(st.integers(0, 10)))
def test_counter_matches_the_truth_table(case):
    cnf, cap = case
    assert count_solutions_capped(cnf, cap) == _capped_truth(cnf, cap)
    with mock.patch.object(allsat_mod, "_COUNT_MAX_BYTES", 0):  # the enumerator counts
        assert count_solutions_capped(cnf, cap) == _capped_truth(cnf, cap)


@settings(max_examples=40, deadline=None)
@given(cnf_and_cap(st.integers(11, 16)))
def test_counter_matches_the_truth_table_past_twelve_variables(case):
    # variables 13..n each have a table axis of their own
    cnf, cap = case
    assert count_solutions_capped(cnf, cap) == _capped_truth(cnf, cap)


@pytest.mark.parametrize("n, bound", [
    (26, allsat_mod._COUNT_MAX_BYTES * 5 // 4),  # the table and its per-word counts
    (30, 1 << 20),  # no table: the capped enumerator counts
])
def test_counter_allocation_is_bounded(n, bound):
    # a ring of implications x_v -> x_{v+1}: all false or all true, 2 solutions
    cnf = Cnf.of(n, [[-v, v % n + 1] for v in range(1, n + 1)])
    tracemalloc.start()
    try:
        assert count_solutions_capped(cnf, 10) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# The benchmark's instance families, drawn as `cascor gen` draws them:
# (num_vars, num_clauses, length weights, solution cap).
FAMILIES = {
    "crossover": (20, 44, {2: 3.0, 3: 3.0, 4: 1.0}, 800),
    "srt-files": (10, 12, {2: 1.0, 3: 1.0}, 100),
    "enumerate": (24, 50, {2: 1.0, 3: 2.0, 4: 1.0}, 20_000),
}

# Each family's first admitted draws and the search that enumerates them:
# spec seed, solutions, nodes, solve calls, dead-set size, dead-set hits and
# the first 16 hex digits of the SHA-256 of the assignments, one "0"/"1" line
# each in discovery order.  Recorded from the mutable-counter enumerator that
# tests/conftest.py keeps as slow_enumerate; equal counters and order show the
# memoized search visits the same nodes.
SEARCHES = [
    ("crossover", 0, 746, 11_793, 747, 33, 966, "6e909272c4ef9834"),
    ("crossover", 1, 90, 1_296, 91, 11, 45, "974812fe43fefb1c"),
    ("crossover", 2, 86, 1_010, 87, 9, 82, "83b2deca0392982a"),
    ("srt-files", 0, 84, 916, 85, 6, 39, "66f5716e7e5d2dbd"),
    ("srt-files", 1, 58, 579, 59, 6, 39, "e247f623fdad29a7"),
    ("srt-files", 2, 51, 510, 52, 10, 42, "97f6714dbe793e6e"),
    ("srt-files", 3, 53, 537, 54, 8, 55, "1e392ce54b71457f"),
    ("enumerate", 0, 6_782, 151_473, 6_783, 364, 25_652, "1d350b8a9a2299ea"),
]


def _draw(family: str, seed: int) -> Cnf:
    n, m, lengths, cap = FAMILIES[family]
    return generate_mixed_sat(MixedSatSpec(n, m, lengths, seed, cap))[0]


def _order_digest(assignments) -> str:
    text = "".join("".join("1" if b else "0" for b in a) + "\n" for a in assignments)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _search_of(result: EnumerationResult) -> dict:
    """The fields slow_enumerate reports, from an enumerate_all result."""
    return {
        "assignments": result.assignments(),
        "complete": result.complete,
        "cap_hit": result.cap_hit,
        "nodes": result.nodes,
        "solve_calls": result.solve_calls,
        "dead_size": result.dead_size,
        "dead_hits": result.dead_hits,
    }


@pytest.mark.parametrize("family, seed, solutions, nodes, solve_calls, dead_size, dead_hits, order",
                         SEARCHES)
def test_search_counters_on_the_benchmark_draws(
    family, seed, solutions, nodes, solve_calls, dead_size, dead_hits, order
):
    result = enumerate_all(_draw(family, seed), cap=1_000_000)
    assert result.complete and len(result.events) == solutions
    assert (result.nodes, result.solve_calls, result.dead_size, result.dead_hits) == (
        nodes, solve_calls, dead_size, dead_hits
    )
    assert _order_digest(result.assignments()) == order


@st.composite
def search_cases(draw):
    """A CNF over 0..22 variables (crossing the 16-variable boundary of the
    active block set) with n/2..2n clauses of mostly 2 or 3 literals, and a cap."""
    n = draw(st.one_of(st.integers(0, 16), st.integers(17, 22)))
    clauses = []
    for _ in range(draw(st.integers(n, 2 * n))):
        k = min(n, draw(st.sampled_from([2, 3, 2, 3, 2, 3, 4, 1])))
        variables = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        clauses.append([v if draw(st.booleans()) else -v for v in variables])
    cap = draw(st.one_of(st.sampled_from([1, 2, 300]), st.integers(3, 300)))
    return Cnf.of(n, clauses), cap


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_enumerator_repeats_the_reference_search(case):
    cnf, cap = case
    expected = slow_enumerate(cnf, cap)
    assert _search_of(enumerate_all(cnf, cap)) == expected
    # the memos only skip work: with no room in them the search is the same
    with mock.patch.object(allsat_mod, "_MEMO_LIMIT", 0):
        assert _search_of(enumerate_all(cnf, cap)) == expected
    # a full dead set stops growing, in both searches alike
    with mock.patch.object(allsat_mod, "_DEAD_SET_LIMIT", 2):
        assert _search_of(enumerate_all(cnf, cap)) == slow_enumerate(cnf, cap, dead_limit=2)


@pytest.mark.slow
def test_capped_memos_keep_the_search_memory_flat():
    cnf = _draw("enumerate", 0)
    uncapped = _search_of(enumerate_all(cnf, cap=1_000_000))
    with mock.patch.object(allsat_mod, "_MEMO_LIMIT", 256):
        tracemalloc.start()
        try:
            result = enumerate_all(cnf, cap=1_000_000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert _search_of(result) == uncapped
    # Beyond the 6782 events it returns (about 2.7 MB), the search holds only
    # the capped memos, the dead set and the block bitsets; uncapped memos
    # reach about 28k entries and 5 MB here.
    assert peak - held < 1 << 20
