import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascor.allsat import enumerate_all
from cascor.compiler import (
    ConstructionPolicy,
    build_clause_penalty,
    build_h2,
    build_h_or,
    clause_ground_energy,
    compile_cnf,
    compiled_from_json,
    compiled_to_json,
)
from cascor.ising import IsingModel, TermSet, enumerate_ground_states
from cascor.sat import Clause, Cnf, Literal

from conftest import all_states, brute_force_solutions, slow_energy, spectrum


def model_of(terms: TermSet, num_qubits: int) -> IsingModel:
    return IsingModel.from_terms(num_qubits, terms.linear, terms.quadratic)


def spins_of(bools):
    return tuple(1 if b else -1 for b in bools)


# --- pair penalty -----------------------------------------------------------------


def test_h2_positive_table():
    terms = build_h2(0, 1)
    assert terms.linear == {0: -1, 1: -1}
    assert terms.quadratic == {(0, 1): 1}
    m = model_of(terms, 2)
    table = {
        (1, 1): -1,
        (1, -1): -1,
        (-1, 1): -1,
        (-1, -1): 3,
    }
    for spins, expected in table.items():
        assert slow_energy(m, spins) == expected


@pytest.mark.parametrize("neg1,neg2", list(itertools.product([False, True], repeat=2)))
def test_h2_negation_ground_space(neg1, neg2):
    m = model_of(build_h2(0, 1, neg1, neg2), 2)
    for b1, b2 in itertools.product([False, True], repeat=2):
        want = (b1 != neg1) or (b2 != neg2)
        e = slow_energy(m, spins_of((b1, b2)))
        assert e == (-1 if want else 3)


def test_h2_mixed_signs():
    terms = build_h2(0, 1, False, True)
    assert terms.linear == {0: -1, 1: 1}
    assert terms.quadratic == {(0, 1): -1}
    terms = build_h2(0, 1, True, True)
    assert terms.linear == {0: 1, 1: 1}
    assert terms.quadratic == {(0, 1): 1}


def test_h2_rejects_identical_qubits():
    with pytest.raises(ValueError):
        build_h2(3, 3)


# --- OR-with-output penalty ---------------------------------------------------------


def test_h_or_spectrum():
    m = model_of(build_h_or(0, 1, 2), 3)
    spec = spectrum(m)
    grounds = {s for s, e in spec.items() if e == -3}
    # z must equal x1 OR x2 in every ground state
    assert grounds == {
        spins_of((b1, b2, b1 or b2))
        for b1, b2 in itertools.product([False, True], repeat=2)
    }
    assert spec[spins_of((False, False, True))] == 1  # spectral gap 4
    assert spec[spins_of((True, True, False))] == 9  # worst violation
    assert min(spec.values()) == -3


@pytest.mark.parametrize("neg1,neg2", list(itertools.product([False, True], repeat=2)))
def test_h_or_negation_ground_space(neg1, neg2):
    m = model_of(build_h_or(0, 1, 2, neg1, neg2), 3)
    for b1, b2, bz in itertools.product([False, True], repeat=3):
        e = slow_energy(m, spins_of((b1, b2, bz)))
        expected_z = (b1 != neg1) or (b2 != neg2)
        assert (e == -3) == (bz == expected_z)


def test_h_or_rejects_duplicate_qubits():
    with pytest.raises(ValueError):
        build_h_or(0, 1, 1)


# --- clause penalties -----------------------------------------------------------------


def test_k3_chain_matches_collected_coefficients():
    clause = Clause.of(1, 2, 3)
    penalty = build_clause_penalty(
        clause, itertools.count(3), {1: 0, 2: 1, 3: 2}, ConstructionPolicy("chain")
    )
    assert penalty.terms.linear == {0: 1, 1: 1, 3: -3, 2: -1}
    assert penalty.terms.quadratic == {(0, 1): 1, (0, 3): -2, (1, 3): -2, (2, 3): 1}
    assert penalty.ancilla_qubits == (3,)
    assert penalty.ground_energy == -4


def test_k1_and_k2_penalties():
    pos = build_clause_penalty(
        Clause.of(1), itertools.count(1), {1: 0}, ConstructionPolicy("chain")
    )
    assert pos.terms.linear == {0: -1} and pos.ground_energy == -1
    neg = build_clause_penalty(
        Clause.of(-1), itertools.count(1), {1: 0}, ConstructionPolicy("chain")
    )
    assert neg.terms.linear == {0: 1} and neg.ground_energy == -1

    pair = build_clause_penalty(
        Clause.of(1, 2), itertools.count(2), {1: 0, 2: 1}, ConstructionPolicy("chain")
    )
    assert pair.ancilla_qubits == ()
    assert pair.ground_energy == -1
    assert pair.terms.linear == {0: -1, 1: -1}


def test_k5_accounting():
    clause = Clause.of(1, 2, 3, 4, 5)
    penalty = build_clause_penalty(
        clause,
        itertools.count(5),
        {v: v - 1 for v in range(1, 6)},
        ConstructionPolicy("chain"),
    )
    assert len(penalty.ancilla_qubits) == 3
    assert penalty.ground_energy == -10
    m = model_of(penalty.terms, 8)
    best = min(slow_energy(m, s) for s in all_states(8))
    assert best == -10


def min_over_ancillas(penalty, num_vars, var_bools):
    """Independent oracle: clamp variable qubits, scan all ancilla completions."""
    best = None
    anc = penalty.ancilla_qubits
    for mask in range(1 << len(anc)):
        spins = [0] * (num_vars + len(anc))
        for pos, q in penalty.variable_qubits.items():
            spins[q] = 1 if var_bools[pos] else -1
        for p, q in enumerate(anc):
            spins[q] = 1 if (mask >> p) & 1 else -1
        e = 0
        for q, v in penalty.terms.linear.items():
            e += v * spins[q]
        for (i, j), v in penalty.terms.quadratic.items():
            e += v * spins[i] * spins[j]
        if best is None or e < best:
            best = e
    return best


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_ground_space_soundness_and_completeness(k):
    """For every polarity pattern and variable assignment, the best ancilla
    completion hits the ground energy iff the clause is satisfied, and is at
    least 4 above it otherwise."""
    var_map = {v: v - 1 for v in range(1, k + 1)}
    for polarity in itertools.product([False, True], repeat=k):
        clause = Clause(tuple(Literal(v + 1, neg) for v, neg in enumerate(polarity)))
        penalty = build_clause_penalty(
            clause, itertools.count(k), var_map, ConstructionPolicy("chain")
        )
        ground = clause_ground_energy(k)
        assert penalty.ground_energy == ground == -1 - 3 * (k - 2)
        for var_bools in itertools.product([False, True], repeat=k):
            satisfied = any(b != neg for b, neg in zip(var_bools, polarity))
            best = min_over_ancillas(penalty, k, var_bools)
            if satisfied:
                assert best == ground
            else:
                assert best >= ground + 4


def policies_for(k):
    return [
        ConstructionPolicy("chain"),
        ConstructionPolicy("balanced"),
        ConstructionPolicy("seeded_random", 17),
        ConstructionPolicy("seeded_random", 99),
    ]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_policy_equivalence(k):
    var_map = {v: v - 1 for v in range(1, k + 1)}
    clause = Clause.of(*range(1, k + 1))
    projections = []
    for policy in policies_for(k):
        penalty = build_clause_penalty(clause, itertools.count(k), var_map, policy)
        assert penalty.ground_energy == -1 - 3 * (k - 2)
        assert len(penalty.ancilla_qubits) == k - 2
        m = model_of(penalty.terms, 2 * (k - 1))
        spec = spectrum(m)
        ground = min(spec.values())
        assert ground == penalty.ground_energy
        projections.append({s[:k] for s, e in spec.items() if e == ground})
    assert all(p == projections[0] for p in projections)


def test_policy_validation():
    with pytest.raises(ValueError):
        ConstructionPolicy("chain", seed=4)
    with pytest.raises(ValueError):
        ConstructionPolicy("seeded_random")
    with pytest.raises(ValueError):
        ConstructionPolicy("zigzag")


# --- whole-CNF compilation ---------------------------------------------------------


def test_compile_single_clause_projection():
    cnf = Cnf.of(3, [[1, 2, 3]])
    model, layout = compile_cnf(cnf)
    assert model.num_qubits == 4
    spec = spectrum(model)
    ground = min(spec.values())
    assert ground == layout.ground_bound == -4
    projected = {
        tuple(s[layout.var_to_qubit[v]] > 0 for v in (1, 2, 3))
        for s, e in spec.items()
        if e == ground
    }
    assert projected == brute_force_solutions(cnf)
    assert len(projected) == 7


def test_compile_unsat_contradiction():
    cnf = Cnf.of(1, [[1], [-1]])
    model, layout = compile_cnf(cnf)
    assert layout.ground_bound == -2
    assert model.h == {}  # the two unit fields cancel
    assert min(slow_energy(model, s) for s in all_states(1)) == 0


def test_compile_shared_variable_counts():
    cnf = Cnf.of(5, [[1, 2, 3], [2, 4], [2, 3, 4, 5]])
    model, layout = compile_cnf(cnf)
    expected = 5 + (3 - 2) + 0 + (4 - 2)
    assert model.num_qubits == layout.num_qubits == expected
    assert layout.ground_bound == -4 + -1 + -7
    anc_sets = [set(a) for a in layout.clause_ancillas]
    var_qubits = set(layout.var_to_qubit.values())
    for a, b in itertools.combinations(anc_sets, 2):
        assert not (a & b)
    for a in anc_sets:
        assert not (a & var_qubits)


def test_compile_additivity():
    cnf = Cnf.of(4, [[1, 2, 3], [-2, 4], [1, -4]])
    model, layout = compile_cnf(cnf)
    total = TermSet()
    ancillas = itertools.count(len(layout.var_to_qubit))
    for clause in cnf.clauses:
        penalty = build_clause_penalty(
            clause, ancillas, layout.var_to_qubit, ConstructionPolicy("chain")
        )
        total.merge(penalty.terms)
    assert dict(model.h) == total.linear
    assert dict(model.J) == total.quadratic


def test_compile_rejects_empty():
    with pytest.raises(ValueError):
        compile_cnf(Cnf(3))


def test_missing_variable():
    with pytest.raises(KeyError):
        build_clause_penalty(
            Clause.of(1, 2), itertools.count(2), {1: 0}, ConstructionPolicy("chain")
        )


def test_json_roundtrip():
    cnf = Cnf.of(4, [[1, 2, 3], [-2, 4]])
    policy = ConstructionPolicy("seeded_random", 5)
    model, layout = compile_cnf(cnf, policy)
    doc = json.loads(json.dumps(compiled_to_json(model, layout, policy)))
    assert compiled_from_json(doc) == (model, policy)


@st.composite
def cnf_and_policy(draw):
    """A CNF over at most 8 variables (some maybe unused), 1-4 clauses of 1-5 literals, and a policy."""
    n = draw(st.integers(1, 8))
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        variables = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, min(n, 5)))]
        clauses.append([v if draw(st.booleans()) else -v for v in variables])
    policy = draw(st.sampled_from(["chain", "balanced", "seeded_random"]))
    seed = draw(st.integers(0, 2**32 - 1)) if policy == "seeded_random" else None
    return Cnf.of(n, clauses), ConstructionPolicy(policy, seed)


@settings(max_examples=250, deadline=None)
@given(cnf_and_policy())
def test_compiled_ground_space_is_the_solution_set(case):
    """Under every policy the oracle reaches ground_bound iff the CNF is satisfiable,
    and its ground states project onto the truth table, which equals ALL-SAT."""
    cnf, policy = case
    model, layout = compile_cnf(cnf, policy)
    assert sum(map(len, layout.clause_ancillas)) == sum(max(len(c) - 2, 0) for c in cnf.clauses)
    truth = brute_force_solutions(cnf)
    assert set(enumerate_all(cnf, cap=1 << cnf.num_vars).assignments()) == truth
    min_energy, states = enumerate_ground_states(model)
    assert (min_energy == layout.ground_bound) == bool(truth)
    assert min_energy >= layout.ground_bound
    if truth:
        used = cnf.variables_used()
        projected = {tuple(s[layout.var_to_qubit[v]] > 0 for v in used) for s in states}
        assert projected == {tuple(a[v - 1] for v in used) for a in truth}


def test_seeded_random_deterministic():
    cnf = Cnf.of(6, [[1, 2, 3, 4, 5, 6]])
    policy = ConstructionPolicy("seeded_random", 42)
    assert compile_cnf(cnf, policy) == compile_cnf(cnf, policy)


@pytest.mark.parametrize("policy", [ConstructionPolicy("chain"), ConstructionPolicy("balanced"),
                                    ConstructionPolicy("seeded_random", 3)], ids=lambda p: p.kind)
def test_a_clause_of_3000_literals_compiles(policy):
    # a chain is 3000 blocks deep, past the interpreter's recursion limit
    k = 3000
    model, layout = compile_cnf(Cnf.of(k, [range(1, k + 1)]), policy)
    assert model.num_qubits == layout.num_qubits == 2 * (k - 1)
    assert layout.ground_bound == -1 - 3 * (k - 2)
    assert sorted(q for block in layout.clause_ancillas for q in block) == list(range(k, 2 * k - 2))
