import itertools
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascor.ising as ising_mod
from cascor.compiler import compile_cnf
from cascor.ising import (
    IsingModel,
    apply_gauge,
    energies_of_states,
    energy,
    enumerate_ground_states,
)
from cascor.sat import Cnf, evaluate

from conftest import (
    all_states,
    brute_force_solutions,
    min_energy_over_ancillas,
    random_small_cnf,
    slow_energy,
    slow_min_states,
    ungauge_sample,
)


H2 = IsingModel.from_terms(2, {0: -1, 1: -1}, {(0, 1): 1})
H_OR = IsingModel.from_terms(
    3, {0: 1, 1: 1, 2: -2}, {(0, 1): 1, (0, 2): -2, (1, 2): -2}
)


def random_model(rng, n, density=0.6):
    h = {q: int(rng.integers(-3, 4)) for q in range(n) if rng.random() < density}
    J = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            J[(i, j)] = int(rng.integers(-3, 4))
    h = {q: v for q, v in h.items() if v != 0}
    J = {k: v for k, v in J.items() if v != 0}
    return IsingModel(n, h, J)


def test_model_validation():
    with pytest.raises(ValueError):
        IsingModel(2, {2: 1.0}, {})
    with pytest.raises(ValueError):
        IsingModel(2, {0: 0.0}, {})
    with pytest.raises(ValueError):
        IsingModel(2, {}, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        IsingModel(2, {}, {(1, 0): 1.0})  # non-canonical key
    with pytest.raises(ValueError):
        IsingModel(2, {}, {(0, 1): 0.0})


def test_from_terms_canonicalizes():
    m = IsingModel.from_terms(3, {0: 0, 1: 2}, {(2, 0): 1.5, (0, 2): -1.5, (1, 2): 1})
    assert m.h == {1: 2}
    assert m.J == {(1, 2): 1}


def test_energy_h2():
    assert energy(H2, (1, 1)) == -1
    assert energy(H2, (-1, -1)) == 3
    assert energy(IsingModel(2), (1, -1)) == 0


def test_energy_validation():
    with pytest.raises(ValueError):
        energy(H2, (1,))
    with pytest.raises(ValueError):
        energy(H2, (1, 0))


def test_apply_gauge_identity_and_flip():
    assert apply_gauge(H2, (1, 1)) == H2
    flipped = apply_gauge(H2, (-1, 1))
    assert flipped.h == {0: 1, 1: -1}
    assert flipped.J == {(0, 1): -1}


def test_gauge_energy_identity_exhaustive(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = random_model(rng, n)
        gauge = tuple(int(g) for g in 2 * rng.integers(0, 2, size=n) - 1)
        gm = apply_gauge(m, gauge)
        for s in all_states(n):
            assert energy(gm, ungauge_sample(s, gauge)) == energy(m, s)


def test_gauge_spectrum_multiset_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = random_model(rng, n)
        gauge = tuple(int(g) for g in 2 * rng.integers(0, 2, size=n) - 1)
        gm = apply_gauge(m, gauge)
        original = Counter(slow_energy(m, s) for s in all_states(n))
        gauged = Counter(slow_energy(gm, s) for s in all_states(n))
        assert original == gauged


def test_ungauge_involution(rng):
    s = tuple(int(v) for v in 2 * rng.integers(0, 2, size=8) - 1)
    g = tuple(int(v) for v in 2 * rng.integers(0, 2, size=8) - 1)
    assert ungauge_sample(ungauge_sample(s, g), g) == s
    assert ungauge_sample(s, (1,) * 8) == s
    with pytest.raises(ValueError):
        ungauge_sample(s, g[:-1])


def test_gauged_ground_states_map_back(rng):
    for _ in range(5):
        n = int(rng.integers(2, 8))
        m = random_model(rng, n)
        g = tuple(int(v) for v in 2 * rng.integers(0, 2, size=n) - 1)
        gm = apply_gauge(m, g)
        e0, states0 = enumerate_ground_states(m)
        e1, states1 = enumerate_ground_states(gm)
        assert e0 == e1
        assert {ungauge_sample(s, g) for s in states1} == states0


def test_enumerate_examples():
    e, states = enumerate_ground_states(H2)
    assert e == -1 and len(states) == 3
    e, states = enumerate_ground_states(H_OR)
    assert e == -3
    assert states == {
        tuple(1 if b else -1 for b in (b1, b2, b1 or b2))
        for b1, b2 in itertools.product([False, True], repeat=2)
    }
    e, states = enumerate_ground_states(IsingModel(1, {0: -1}, {}))
    assert e == -1 and states == {(1,)}
    # no qubits: one empty state of energy 0, through the same block scan
    assert enumerate_ground_states(IsingModel(0)) == (0, {()})


def test_enumerate_matches_slow_oracle(rng):
    for _ in range(15):
        n = int(rng.integers(1, 8))
        m = random_model(rng, n)
        assert enumerate_ground_states(m) == slow_min_states(m)


def test_float_model_matches_reference_within_rounding(rng):
    # The vectorized sums run in another order than the reference loops, so
    # float models agree to rounding; generic coefficients leave no ties.
    for _ in range(5):
        n = int(rng.integers(2, 8))
        pairs = itertools.combinations(range(n), 2)
        m = IsingModel(n, {q: float(rng.normal()) for q in range(n)},
                       {k: float(rng.normal()) for k in pairs})
        assert not m.is_integral()
        for s in all_states(n):
            assert energy(m, s) == pytest.approx(slow_energy(m, s), rel=1e-12, abs=1e-12)
        e, states = enumerate_ground_states(m)
        slow_e, slow_states = slow_min_states(m)
        assert e == pytest.approx(slow_e, rel=1e-12) and states == slow_states


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), integral=st.booleans())
def test_batch_energy_of_a_state_is_its_single_state_energy(data, n, integral):
    # a float model's sums round, so they must not take their order from the batch size
    coefficient = (st.integers(-10**6, 10**6) if integral else
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    pairs = list(itertools.combinations(range(n), 2))
    h = data.draw(st.dictionaries(st.sampled_from(range(n)), coefficient))
    J = data.draw(st.dictionaries(st.sampled_from(pairs), coefficient)) if pairs else {}
    model = IsingModel.from_terms(n, h, J)
    rows = data.draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                              min_size=1, max_size=40))
    spins = np.array(rows, dtype=np.int8)
    batch = energies_of_states(model, spins).tolist()
    assert batch == [energies_of_states(model, spins[r:r + 1]).item() for r in range(len(rows))]
    assert batch == [energy(model, tuple(row)) for row in rows]


def test_model_arrays_are_read_only():
    with pytest.raises(ValueError):
        H2.arrays.h[0] = 5
    assert energy(H2, (1, 1)) == -1


def test_csr_rows_hold_ascending_neighbours(rng):
    # the order row-major np.nonzero of the dense matrix gives
    for _ in range(10):
        n = int(rng.integers(1, 12))
        m = random_model(rng, n)
        dense = np.zeros((n, n), dtype=np.int64)
        for (i, j), v in m.J.items():
            dense[i, j] = dense[j, i] = v
        rows, cols = np.nonzero(dense)
        a = m.arrays
        assert a.indptr.tolist() == [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()]
        assert a.indices.tolist() == cols.tolist()
        assert a.data.tolist() == dense[rows, cols].tolist()


def test_sparse_model_arrays_scale_with_couplers():
    n = 4000
    chain = IsingModel(n, {q: 1 for q in range(0, n, 3)}, {(q, q + 1): -1 for q in range(n - 1)})
    tracemalloc.start()
    try:
        assert chain.arrays.indptr[-1] == 2 * len(chain.J)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * (n + len(chain.J)) < n * n * 8 // 20


def test_integral_models_are_bounded_by_their_magnitude():
    assert IsingModel(2, {0: 2**52, 1: -(2**52)}, {}).is_integral()
    assert not IsingModel(2, {0: 2**52, 1: -(2**52) - 1}, {}).is_integral()
    # int64 energies would wrap at 2**63; float64 ones hold these powers of two exactly
    big = IsingModel(2, {0: 2**62}, {(0, 1): 2**62})
    assert not big.is_integral()
    assert [energy(big, s) for s in all_states(2)] == [slow_energy(big, s) for s in all_states(2)]


def test_enumerate_is_exact_past_float32():
    m = IsingModel(2, {0: 2**25 + 1, 1: 2**25}, {})
    assert enumerate_ground_states(m) == slow_min_states(m) == (-(2**26) - 1, {(-1, -1)})


def test_enumerate_limit():
    with pytest.raises(ValueError):
        enumerate_ground_states(IsingModel(30))


def test_enumerate_chunked_consistency(rng, monkeypatch):
    # With 2^4-state chunks each block holds one high-half state, so 8-10 qubit
    # models run the block loop 8-32 times: minima tie and improve across blocks.
    # With 2^8-state chunks the low half has 7 bits and a block two rows, so at
    # 10-12 qubits the blocks' fixed high bits differ and the doubling fills row 1.
    # Quarter-integer models take the float64 path exactly.
    for chunk_bits, sizes in ((4, (8, 9, 10)), (8, (10, 11, 12))):
        monkeypatch.setattr(ising_mod, "_CHUNK_BITS", chunk_bits)
        for n in sizes:
            for _ in range(3):
                m = random_model(rng, n)
                quarters = IsingModel(n, {q: v / 4 for q, v in m.h.items()},
                                      {k: v / 4 for k, v in m.J.items()})
                assert not quarters.is_integral()
                for model in (m, quarters):
                    assert enumerate_ground_states(model) == slow_min_states(model)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 10), chunk_bits=st.integers(4, 12),
       quarters=st.booleans())
def test_enumerate_blocks_match_the_slow_oracle(seed, n, chunk_bits, quarters):
    # every split of low half, block rows and fixed high bits the chunk size can make
    m = random_model(np.random.default_rng(seed), n)
    if quarters:
        m = IsingModel(n, {q: v / 4 for q, v in m.h.items()}, {k: v / 4 for k, v in m.J.items()})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ising_mod, "_CHUNK_BITS", chunk_bits)
        assert enumerate_ground_states(m) == slow_min_states(m)


def test_enumerate_leaves_no_thread_spinning(rng):
    # A BLAS product at this size ran on a worker thread that spun for about 0.1 s
    # of process CPU after the call returned; elementwise sums start no thread.
    m = random_model(rng, 17, density=0.3)
    enumerate_ground_states(m)
    before = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - before < 0.02


def test_enumerate_splits_past_the_low_half(rng):
    # 14 qubits leave one qubit above the 13-bit low half at the default chunk size.
    m = random_model(rng, 14)
    assert enumerate_ground_states(m) == slow_min_states(m)


def test_min_energy_over_ancillas_examples():
    cnf = Cnf.of(3, [[1, 2, 3]])
    model, layout = compile_cnf(cnf)
    assert min_energy_over_ancillas(model, layout, (False, False, True)) == -4
    assert min_energy_over_ancillas(model, layout, (False, False, False)) == 0

    pair = Cnf.of(2, [[1, 2]])
    pm, pl = compile_cnf(pair)
    assert min_energy_over_ancillas(pm, pl, (True, False)) == -1


def test_min_energy_over_ancillas_unmapped_variable():
    cnf = Cnf.of(3, [[1, 2, 3]])
    model, layout = compile_cnf(cnf)
    with pytest.raises(ValueError):
        min_energy_over_ancillas(model, layout, (True, True))


def test_clamped_minimum_matches_satisfaction(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        cnf = random_small_cnf(rng, n=n, m=int(rng.integers(1, 6)))
        model, layout = compile_cnf(cnf)
        for mask in range(1 << n):
            a = tuple(bool((mask >> i) & 1) for i in range(n))
            bound = min_energy_over_ancillas(model, layout, a)
            assert bound >= layout.ground_bound
            assert (bound == layout.ground_bound) == evaluate(cnf, a)


def test_oracle_agreement_with_allsat_projection(rng):
    for _ in range(8):
        n = int(rng.integers(2, 6))
        cnf = random_small_cnf(rng, n=n, m=int(rng.integers(1, 6)))
        model, layout = compile_cnf(cnf)
        if model.num_qubits > 16:
            continue
        e, states = enumerate_ground_states(model)
        solutions = brute_force_solutions(cnf)
        if e == layout.ground_bound:
            occurring = sorted(layout.var_to_qubit)
            projected = {
                tuple(s[layout.var_to_qubit[v]] > 0 for v in occurring)
                for s in states
            }
            expected = {
                tuple(sol[v - 1] for v in occurring) for sol in solutions
            }
            assert projected == expected
        else:
            assert not solutions
