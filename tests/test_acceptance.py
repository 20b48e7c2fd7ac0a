"""Acceptance suite: every criterion at its stated tolerance, one line each.

Numbered tests mirror the shipped acceptance checklist.  All gadget and
oracle checks are exact integer comparisons; the pipeline reproduction
(criterion 8) and sampler coverage (criterion 9) use fixed seeds with real
classical wallclocks, sized so the qualitative outcome has wide margins.
"""
import itertools
import statistics

import numpy as np
import pytest

from cascor.allsat import enumerate_all
from cascor.compiler import (
    ConstructionPolicy,
    build_clause_penalty,
    build_h2,
    build_h_or,
    compile_cnf,
)
from cascor.ising import IsingModel, energies_of_states, energy, enumerate_ground_states
from cascor.metrics import (
    DistinctTimeline,
    find_crossover,
    hamming_neighbor_distances,
    overlap_fraction,
    summarize_instance,
)
from cascor.samplers import (
    SamplerConfig,
    decode_all,
    random_gauges,
    sample,
    sample_with_srt_rotation,
    samples_to_jsonl,
)
from cascor.sat import Clause, Cnf, Literal, MixedSatSpec, evaluate, generate_mixed_sat

from conftest import assert_file_energies, brute_force_solutions


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _all_spin_states(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def _penalty_model(k: int, polarity, policy) -> IsingModel:
    clause = Clause(tuple(Literal(v + 1, neg) for v, neg in enumerate(polarity)))
    penalty = build_clause_penalty(
        clause, itertools.count(k), {v: v - 1 for v in range(1, k + 1)}, policy
    )
    n = k + len(penalty.ancilla_qubits)
    return IsingModel.from_terms(n, penalty.terms.linear, penalty.terms.quadratic)


def test_acceptance_1_gadget_ground_space_oracle():
    for k in range(2, 7):
        num_qubits = 2 * (k - 1)
        states = _all_spin_states(num_qubits)
        for polarity in itertools.product([False, True], repeat=k):
            model = _penalty_model(k, polarity, ConstructionPolicy("chain"))
            assert model.num_qubits == num_qubits
            energies = energies_of_states(model, states)
            ground = -1 - 3 * (k - 2)
            assert energies.min() == ground

            # minimum over ancilla completions, grouped by the variable bits
            var_bits = states[:, :k] > 0
            best = {}
            for row in range(len(states)):
                key = tuple(bool(b) for b in var_bits[row])
                e = int(energies[row])
                if key not in best or e < best[key]:
                    best[key] = e
            for assignment, minimum in best.items():
                satisfied = any(b != neg for b, neg in zip(assignment, polarity))
                if satisfied:
                    assert minimum == ground
                else:
                    assert minimum >= ground + 4

            projected = {
                tuple(bool(b) for b in var_bits[row])
                for row in range(len(states))
                if energies[row] == ground
            }
            expected = {
                a
                for a in itertools.product([False, True], repeat=k)
                if any(b != neg for b, neg in zip(a, polarity))
            }
            assert projected == expected
    _report(1, "clause gadgets: exact ground energies, projections, and +4 gap for k=2..6")


def test_acceptance_2_equation_spot_checks():
    h2 = IsingModel.from_terms(2, build_h2(0, 1).linear, build_h2(0, 1).quadratic)
    assert [energy(h2, s) for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]] == [-1, -1, -1, 3]

    t = build_h_or(0, 1, 2)
    h_or = IsingModel.from_terms(3, t.linear, t.quadratic)
    ground_states = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)]
    assert [energy(h_or, s) for s in ground_states] == [-3, -3, -3, -3]
    assert energy(h_or, (-1, -1, 1)) == 1
    assert energy(h_or, (1, 1, -1)) == 9
    _report(2, "pair and OR-with-output penalties match their defining tables exactly")


def _random_mixed_cnf(rng: np.random.Generator, n: int, m: int) -> Cnf:
    lengths = [1, 2, 3, 4]
    weights = np.array([0.15, 1.0, 1.0, 0.5])
    weights /= weights.sum()
    clauses = []
    for _ in range(m):
        k = int(rng.choice(lengths, p=weights))
        k = min(k, n)
        variables = rng.choice(n, size=k, replace=False) + 1
        clauses.append(
            Clause(tuple(Literal(int(v), bool(rng.integers(2))) for v in variables))
        )
    return Cnf(n, tuple(clauses))


def test_acceptance_3_cnf_oracle_equivalence():
    rng = np.random.default_rng(31031)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 2000
        n = int(rng.integers(4, 13))
        m = int(rng.integers(n, 2 * n + 3))
        cnf = _random_mixed_cnf(rng, n, m)
        if len(cnf.variables_used()) != n:
            continue
        model, layout = compile_cnf(cnf)
        if model.num_qubits > 26:
            continue
        checked += 1

        truth = brute_force_solutions(cnf)
        enumerated = enumerate_all(cnf, cap=1 << n)
        assert enumerated.complete
        assert set(enumerated.assignments()) == truth

        min_energy, states = enumerate_ground_states(model)
        if truth:
            assert min_energy == layout.ground_bound
            projected = {
                tuple(s[layout.var_to_qubit[v]] > 0 for v in range(1, n + 1))
                for s in states
            }
            assert projected == truth
        else:
            assert min_energy > layout.ground_bound
    _report(3, "100 random mixed CNFs: model ground space == ALL-SAT == truth table")


def test_acceptance_4_policy_equivalence():
    for k in range(3, 7):
        states = _all_spin_states(2 * (k - 1))
        projections = []
        for policy in (
            ConstructionPolicy("chain"),
            ConstructionPolicy("balanced"),
            ConstructionPolicy("seeded_random", 2024),
        ):
            model = _penalty_model(k, (False,) * k, policy)
            energies = energies_of_states(model, states)
            assert energies.min() == -1 - 3 * (k - 2)
            projections.append(
                {tuple(s[:k]) for s, e in zip(states.tolist(), energies) if e == energies.min()}
            )
        assert projections[0] == projections[1] == projections[2]
    _report(4, "chain/balanced/seeded_random builds share ground energy and projections")


def _small_compiled_models(rng: np.random.Generator, count: int):
    models = []
    while len(models) < count:
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        clauses = []
        for _ in range(m):
            k = int(rng.integers(2, 4))
            variables = rng.choice(n, size=k, replace=False) + 1
            clauses.append(
                Clause(tuple(Literal(int(v), bool(rng.integers(2))) for v in variables))
            )
        cnf = Cnf(n, tuple(clauses))
        model, layout = compile_cnf(cnf)
        if model.num_qubits <= 12:
            models.append((cnf, model, layout))
    return models


def test_acceptance_5_srt_correctness():
    rng = np.random.default_rng(5150)
    models = _small_compiled_models(rng, 20)
    for cnf, model, layout in models:
        states = _all_spin_states(model.num_qubits)
        base = energies_of_states(model, states)
        for gauge in random_gauges(model.num_qubits, 50, seed=int(rng.integers(1 << 30))):
            gauged = IsingModel.from_terms(
                model.num_qubits,
                {q: gauge[q] * v for q, v in model.h.items()},
                {(i, j): gauge[i] * gauge[j] * v for (i, j), v in model.J.items()},
            )
            relabeled = states * np.array(gauge, dtype=np.int8)
            assert np.array_equal(energies_of_states(gauged, relabeled), base)

    # decoded SRT samples satisfy their CNF in the original frame
    for cnf, model, layout in models[:5]:
        cfg = SamplerConfig(num_reads=60, sweeps=30, seed=55)
        runs = sample_with_srt_rotation(model, cfg, random_gauges(model.num_qubits, 3, 55))
        decoded = [decode_all(run, layout, cnf) for run in runs]
        assert_file_energies(model, samples_to_jsonl(model, runs, decoded, gauged=True))
        for assignment in itertools.chain.from_iterable(decoded):
            if assignment is not None:
                assert evaluate(cnf, assignment)
    _report(5, "spectrum multisets invariant under 50 gauges x 20 models; SRT decodes satisfy")


def test_acceptance_6_qubit_accounting():
    for k in range(2, 9):
        penalty = build_clause_penalty(
            Clause.of(*range(1, k + 1)),
            itertools.count(k),
            {v: v - 1 for v in range(1, k + 1)},
            ConstructionPolicy("chain"),
        )
        qubits = set(penalty.variable_qubits.values()) | set(penalty.ancilla_qubits)
        assert len(qubits) == 2 * (k - 1)

    rng = np.random.default_rng(66)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(1, 8))
        clauses = []
        for _ in range(m):
            k = int(rng.integers(2, min(n, 5) + 1))
            variables = rng.choice(n, size=k, replace=False) + 1
            clauses.append(Clause(tuple(Literal(int(v)) for v in variables)))
        cnf = Cnf(n, tuple(clauses))
        model, layout = compile_cnf(cnf)
        expected = len(cnf.variables_used()) + sum(max(len(c) - 2, 0) for c in cnf.clauses)
        assert model.num_qubits == layout.num_qubits == expected
    _report(6, "qubit counts: 2(k-1) per isolated clause; |vars| + sum(k-2) compiled")


def test_acceptance_7_metrics_unit_fixtures():
    q = DistinctTimeline(tuple(float(m) for m in range(1, 11)), "quantum-core")
    c = DistinctTimeline(tuple(5 + 0.1 * (m - 1) for m in range(1, 11)), "classical-wall")
    crossing = find_crossover(q, c)
    assert crossing.outcome == "cross_at" and crossing.count == 6

    q2 = DistinctTimeline((10, 20), "quantum-core")
    c2 = DistinctTimeline((5, 50), "classical-wall")
    assert find_crossover(q2, c2).outcome == "quantum_never_ahead"

    a, b, c3 = 0b000, 0b110, 0b111  # assignment codes: bit v-1 holds variable v
    assert overlap_fraction({a, b}, {b, c3}) == pytest.approx(1 / 3)
    assert hamming_neighbor_distances([a, b, c3]) == [2, 1]
    _report(7, "crossover m*=6, never-ahead rule, Jaccard 1/3, Hamming [2,1] fixtures")


BENCH_OVERHEAD = {"programming_us": 20_000, "per_read_readout_us": 1_980}


def _bench_instances(count: int):
    # Solution counts are narrowed to [30, 800] within the criterion's
    # [10, 10^4] so both solvers' curves develop inside the read budget.
    instances = []
    seed = 0
    while len(instances) < count:
        assert seed < 400, "instance admission stalled"
        spec = MixedSatSpec(
            num_vars=20,
            num_clauses=44,
            length_weights={2: 3.0, 3: 3.0, 4: 1.0},
            seed=seed,
            solution_cap=10_000,
        )
        seed += 1
        try:
            cnf, _ = generate_mixed_sat(spec, max_attempts=25)
        except Exception:
            continue
        if len(cnf.variables_used()) != 20:
            continue
        result = enumerate_all(cnf, cap=10_000)
        if not result.complete or not 30 <= len(result.events) <= 800:
            continue
        instances.append((seed - 1, cnf, result))
    return instances


@pytest.mark.slow
def test_acceptance_8_qualitative_pipeline_reproduction():
    """Core-axis crossover for a majority; wallclock never ahead (100x overhead)."""
    assert BENCH_OVERHEAD["per_read_readout_us"] + 20 >= 100 * 20
    instances = _bench_instances(20)
    core_crossings = 0
    core_ratios = []
    for seed, cnf, classical in instances:
        model, layout = compile_cnf(cnf)
        cfg = SamplerConfig(
            num_reads=20_000,
            sweeps=50,
            beta_start=0.1,
            beta_end=12.0,
            seed=900_000 + seed,
            core_time_per_read_us=20,
            **BENCH_OVERHEAD,
        )
        batch = sample(model, cfg)
        report = summarize_instance(
            [batch], list(classical.events), layout, cnf, instance_id=f"i{seed}"
        )
        assert report.crossovers["wall"].outcome == "quantum_never_ahead"
        core = report.crossovers["core"]
        core_ratios.append(core.first_solution_ratio)
        if core.outcome == "cross_at":
            core_crossings += 1
            assert core.count >= 1
            assert 0 <= core.overlap_fraction <= 1
    assert core_crossings > len(instances) // 2, (
        f"only {core_crossings}/{len(instances)} instances crossed on the core axis"
    )
    _report(
        8,
        f"pipeline on {len(instances)} instances: {core_crossings} core-axis crossovers, "
        f"median core-axis first-solution ratio {statistics.median(core_ratios):.3g}, "
        "wallclock never ahead",
    )


def _coverage_instances(count: int):
    instances = []
    seed = 0
    while len(instances) < count:
        assert seed < 400, "instance admission stalled"
        spec = MixedSatSpec(
            num_vars=10,
            num_clauses=12,
            length_weights={2: 1.0, 3: 1.0},
            seed=seed,
            solution_cap=100,
        )
        seed += 1
        try:
            cnf, _ = generate_mixed_sat(spec, max_attempts=10)
        except Exception:
            continue
        if len(cnf.variables_used()) != 10:
            continue
        model, layout = compile_cnf(cnf)
        if model.num_qubits > 20:
            continue
        result = enumerate_all(cnf, cap=100)
        if not result.complete:
            continue
        instances.append((cnf, model, layout, set(result.assignments())))
    return instances


@pytest.mark.slow
def test_acceptance_9_sampler_statistical_coverage():
    instances = _coverage_instances(5)
    successes = 0
    trials = 0
    for idx, (cnf, model, layout, truth) in enumerate(instances):
        assert model.num_qubits <= 20 and len(truth) <= 100
        for trial in range(20):
            trials += 1
            cfg = SamplerConfig(num_reads=10_000, seed=7_000_000 + 1009 * trial + idx)
            batch = sample(model, cfg)
            found = {a for a in decode_all(batch, layout, cnf) if a is not None}
            if found == truth:
                successes += 1
    assert trials == 100
    assert successes >= 99, f"coverage in only {successes}/100 trials"
    _report(9, f"default-settings sampler recovered full solution sets in {successes}/100 trials")
