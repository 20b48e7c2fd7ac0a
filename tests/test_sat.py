import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascor import sat as sat_mod
from cascor.sat import (
    Clause,
    Cnf,
    DimacsError,
    GenerationError,
    LimitError,
    Literal,
    MixedSatSpec,
    _code_words,
    _draw_instance,
    _falsified,
    emit_dimacs,
    evaluate,
    generate_mixed_sat,
    parse_dimacs,
)

from conftest import (
    brute_force_solutions,
    near_solutions,
    random_small_cnf,
    slow_draw_instance,
    wide_cnfs,
)


def test_parse_basic():
    cnf = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == (Clause.of(1, -2), Clause.of(2, 3))


def test_parse_comments_and_multiline_clauses():
    text = "c a comment\nc another\np cnf 4 2\n1 2\n-3 0\n4 0\n"
    cnf = parse_dimacs(text)
    assert cnf.clauses == (Clause.of(1, 2, -3), Clause.of(4,))


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 2 1\n0\n",  # empty clause
        "p cnf 2 1\n1 3 0\n",  # var out of range
        "1 2 0\n",  # missing header
        "p cnf 2 1\np cnf 2 1\n1 0\n",  # duplicate header
        "p cnf 2 2\n1 0\n",  # clause count mismatch
        "p cnf 2 1\n1 x 0\n",  # non-integer token
        "p cnf 2 1\n1 2\n",  # unterminated clause
        "p cnf 2 1\n1 1 0\n",  # repeated variable
    ],
)
def test_parse_errors(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


# DIMACS-like text: a header or none, then header and comment words, literals
# (some past the header's count), stray tokens, and the separators the parser splits on
_DIMACS_TOKENS = st.sampled_from(["p", "cnf", "c", "0", "0", "0", "-", "x", "1.5", "\n", "\r\n"])
_DIMACS_LIKE = st.builds(
    "{}{}".format,
    st.just("") | st.tuples(st.integers(-1, 5), st.integers(-1, 4)).map(
        lambda counts: "p cnf {} {}\n".format(*counts)),
    st.lists(_DIMACS_TOKENS | st.integers(-5, 5).map(str) | st.integers().map(str)
             | st.text(max_size=3), max_size=30).map(" ".join),
)


@settings(max_examples=500, deadline=None)
@given(st.text() | _DIMACS_LIKE)
def test_parse_dimacs_raises_only_dimacs_error(text):
    try:
        cnf = parse_dimacs(text)
    except DimacsError:
        return
    assert parse_dimacs(emit_dimacs(cnf)) == cnf


def test_emit_single_clause():
    assert emit_dimacs(Cnf.of(1, [[1]])) == "p cnf 1 1\n1 0\n"


def test_emit_no_clauses():
    assert emit_dimacs(Cnf(2)) == "p cnf 2 0\n"


def test_roundtrip_random(rng):
    for _ in range(50):
        cnf = random_small_cnf(rng, n=int(rng.integers(1, 9)), m=int(rng.integers(0, 10)))
        assert parse_dimacs(emit_dimacs(cnf)) == cnf


def test_evaluate_examples():
    cnf = Cnf.of(3, [[1, -2], [2, 3]])
    assert evaluate(cnf, (True, True, True)) is True
    assert evaluate(cnf, (False, True, False)) is False
    assert evaluate(Cnf(3), (False, False, False)) is True  # vacuous conjunction


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(Cnf.of(2, [[1, 2]]), (True,))


def test_evaluate_agrees_with_truth_table(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        cnf = random_small_cnf(rng, n=n, m=int(rng.integers(1, 7)))
        expected = brute_force_solutions(cnf)
        for mask in range(1 << n):
            a = tuple(bool((mask >> i) & 1) for i in range(n))
            assert evaluate(cnf, a) == (a in expected)


def test_literal_and_clause_invariants():
    with pytest.raises(ValueError):
        Literal(0)
    with pytest.raises(ValueError):
        Clause(())
    with pytest.raises(ValueError):
        Clause.of(1, -1)  # same variable twice
    with pytest.raises(ValueError):
        Cnf.of(1, [[2]])


def test_spec_validation():
    with pytest.raises(ValueError):
        MixedSatSpec(4, 2, {}, seed=1, solution_cap=4)
    with pytest.raises(ValueError):
        MixedSatSpec(4, 2, {5: 1.0}, seed=1, solution_cap=4)  # k > n
    with pytest.raises(ValueError):
        MixedSatSpec(4, 2, {2: 0.0}, seed=1, solution_cap=4)  # zero total weight
    with pytest.raises(ValueError):
        MixedSatSpec(4, 2, {2: 1.0}, seed=1, solution_cap=0)
    with pytest.raises(ValueError, match="seed"):
        MixedSatSpec(4, 2, {2: 1.0}, seed=-1, solution_cap=4)
    with pytest.raises(ValueError, match="finite total"):
        MixedSatSpec(4, 2, {2: 1e308, 3: 1e308}, seed=1, solution_cap=4)  # the total overflows


def test_spec_json_roundtrip():
    spec = MixedSatSpec(6, 4, {2: 1.0, 3: 2.0}, seed=11, solution_cap=64)
    assert json.loads(json.dumps(spec.to_json())) == {
        "num_vars": 6,
        "num_clauses": 4,
        "length_weights": {"2": 1.0, "3": 2.0},
        "seed": 11,
        "solution_cap": 64,
    }


def test_generation_deterministic():
    spec = MixedSatSpec(6, 4, {2: 1.0, 3: 1.0}, seed=123, solution_cap=64)
    assert generate_mixed_sat(spec) == generate_mixed_sat(spec)


def test_generation_length_support():
    spec = MixedSatSpec(8, 6, {2: 0.5, 4: 0.5}, seed=7, solution_cap=256)
    cnf, _ = generate_mixed_sat(spec)
    assert all(len(c) in (2, 4) for c in cnf.clauses)
    for clause in cnf.clauses:
        variables = [lit.var for lit in clause.literals]
        assert len(set(variables)) == len(variables)


def test_generation_respects_cap():
    spec = MixedSatSpec(4, 2, {2: 1.0, 3: 1.0}, seed=5, solution_cap=16)
    cnf, count = generate_mixed_sat(spec)
    assert count == len(brute_force_solutions(cnf))
    assert 1 <= count <= 16


def test_generation_retry_exhaustion():
    # Two clauses over 2 vars cannot pin down to a single solution reliably;
    # force failure with an unreachable one-solution cap on a tautology-rich family.
    spec = MixedSatSpec(6, 1, {2: 1.0}, seed=3, solution_cap=1)
    with pytest.raises(GenerationError):
        generate_mixed_sat(spec, max_attempts=20)


@st.composite
def mixed_sat_specs(draw):
    """Specs over 1-62 variables with 0-60 clauses and one to six lengths, num_vars among
    them often, weighted 0, 1e-300 or anything up to 1e6, with seeds past 2**64."""
    n = draw(st.integers(1, 62))
    lengths = draw(st.lists(st.just(n) | st.integers(1, n), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1e6),
                            min_size=len(lengths), max_size=len(lengths)))
    if not sum(weights):
        weights[-1] = 1.0
    return MixedSatSpec(n, draw(st.integers(0, 60)), dict(zip(lengths, weights)),
                        draw(st.integers(0, 2**64 + 3)), 1)


@settings(max_examples=300, deadline=None)
@given(spec=mixed_sat_specs(), attempt=st.integers(0, 2**33))
@example(spec=MixedSatSpec(62, 60, {62: 1.0, 1: 1e-300, 5: 0.0}, 2**64 + 3, 1), attempt=2**32 + 5)
@example(spec=MixedSatSpec(1, 60, {1: 1.0}, 0, 1), attempt=0)
@example(spec=MixedSatSpec(20, 60, {2: 3.0, 3: 3.0, 4: 1.0}, 2**32, 1), attempt=2**32 - 1)
def test_kernel_draw_is_numpys_draw(spec, attempt):
    assert _draw_instance(spec, attempt) == slow_draw_instance(spec, attempt)


def test_generation_checks_the_counter_before_the_first_draw(monkeypatch):
    monkeypatch.setattr(sat_mod, "_draw_instance", lambda *args: pytest.fail("drew an instance"))
    with pytest.raises(ValueError, match="up to 62 variables"):
        generate_mixed_sat(MixedSatSpec(100, 10, {2: 1}, 0, 5))


def test_draw_past_the_run_size_limit_is_limit_error():
    # 10**8 clauses of up to 3 literals: 3.2 GB of arrays, refused before any is allocated
    with pytest.raises(LimitError, match="drawn clauses"):
        generate_mixed_sat(MixedSatSpec(20, 10**8, {2: 1.0, 3: 1.0}, 0, 5))


def test_clause_masks_hold_variable_v_at_bit_v_minus_one():
    cnf = Cnf.of(130, [[130, -65, 1], [-64]])
    masks = cnf.masks
    assert masks.shape == (2, 2, 3) and masks.dtype == np.uint64
    assert masks.tolist() == [[[1, 0, 2], [0, 0, 0]], [[0, 1, 0], [1 << 63, 0, 0]]]
    assert not masks.flags.writeable
    assert cnf.masks is masks  # built once per CNF


@given(cnf=wide_cnfs(), seed=st.integers(0, 2**32 - 1))
def test_falsified_is_the_negation_of_evaluate(cnf, seed):
    bits = near_solutions(cnf, np.random.default_rng(seed), 16).tolist()
    codes = [sum(1 << v for v, b in enumerate(row) if b) for row in bits]
    words = _code_words(codes, len(codes), cnf.num_vars, "assignments")
    assert _falsified(words, cnf.masks).tolist() == [not evaluate(cnf, tuple(r)) for r in bits]
