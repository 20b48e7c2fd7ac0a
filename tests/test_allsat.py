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
from cascor.sat import Cnf, evaluate

from conftest import brute_force_solutions, random_small_cnf


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
