import json
import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascor.samplers as samplers
from cascor.compiler import compile_cnf
from cascor.ising import IsingModel, energies_of_states, enumerate_ground_states
from cascor.samplers import (
    OverheadModel,
    SampleBatch,
    SamplerConfig,
    decode_all,
    random_gauges,
    sample,
    sample_with_srt_rotation,
    samples_from_jsonl,
    samples_to_jsonl,
)
from cascor.sat import Cnf, _derived_rng, evaluate

from conftest import (
    assert_same_batch,
    batch_of,
    brute_force_solutions,
    random_small_cnf,
    slow_anneal,
    slow_decode,
    slow_energy,
)

H2 = IsingModel.from_terms(2, {0: -1, 1: -1}, {(0, 1): 1})


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(num_reads=0)
    with pytest.raises(ValueError):
        SamplerConfig(sweeps=0)
    with pytest.raises(ValueError):
        SamplerConfig(beta_start=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(beta_start=2.0, beta_end=1.0)
    with pytest.raises(ValueError):
        OverheadModel(programming_us=-1)


def test_deterministic_for_seed():
    cfg = SamplerConfig(num_reads=50, sweeps=20, seed=99)
    assert_same_batch(sample(H2, cfg), sample(H2, cfg))


def test_reads_are_a_prefix_of_longer_runs():
    # read r depends only on (seed, r), so fewer reads give the first rows
    cnf = Cnf.of(4, [[1, 2, 3], [-1, 4], [2, -3, 4]])
    model, _ = compile_cnf(cnf)
    full = sample(model, SamplerConfig(num_reads=40, sweeps=15, seed=5)).spins
    for k in (1, 2, 17, 39):
        assert np.array_equal(sample(model, SamplerConfig(num_reads=k, sweeps=15, seed=5)).spins,
                              full[:k])


def random_float_model(rng: np.random.Generator, n: int) -> IsingModel:
    h = {q: float(rng.normal()) for q in range(n) if rng.random() < 0.7}
    J = {(i, j): float(rng.normal())
         for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
    return IsingModel(n, h, J)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    integral=st.booleans(),
    reads=st.integers(1, 9),
    sweeps=st.integers(1, 12),
)
@example(seed=1, integral=True, reads=7, sweeps=7)
@example(seed=2, integral=False, reads=5, sweeps=4)
def test_sample_matches_reference_anneal(seed, integral, reads, sweeps):
    rng = np.random.default_rng(seed)
    if integral:
        cnf = random_small_cnf(rng, n=int(rng.integers(1, 7)), m=int(rng.integers(1, 7)))
        model, _ = compile_cnf(cnf)
    else:
        model = random_float_model(rng, int(rng.integers(1, 9)))
    cfg = SamplerConfig(num_reads=reads, sweeps=sweeps, seed=seed,
                        beta_end=float(rng.uniform(0.1, 8.0)))
    # Float-valued local fields may differ from the reference's in the last bit
    # (the dot products sum in another order), and libm's exp from numpy's; a
    # spin could differ only if a uniform fell within that rounding of its
    # acceptance probability.
    expected = slow_anneal(model, cfg)
    spins = sample(model, cfg).spins
    assert spins.dtype == expected.dtype and np.array_equal(spins, expected)
    assert spins.strides == expected.strides  # row-major, as consumers of reads expect


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 1])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 13])
def test_kernel_streams_match_reference(seed, n):
    # seeds of one to seven entropy words, odd and even initial-spin draws
    rng = np.random.default_rng(n)
    model = IsingModel.from_terms(
        n, {q: int(rng.integers(-2, 3)) for q in range(n)},
        {(i, j): int(rng.integers(-2, 3)) for i in range(n) for j in range(i + 1, n)})
    cfg = SamplerConfig(num_reads=6, sweeps=9, seed=seed, beta_end=2.0)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def test_integral_model_beyond_the_table_cap_matches_reference():
    # a field of 10^6 would need 10^6 + 8 table entries per sweep, so the kernel calls exp
    model = IsingModel(5, {0: 10**6, 1: -3, 3: 2}, {(0, 1): 1, (1, 2): -2, (2, 3): 1, (3, 4): 3})
    cfg = SamplerConfig(num_reads=50, sweeps=20, seed=4, beta_end=1.0)
    assert cfg.sweeps * (10**6 + 8) * 8 > samplers._TABLE_BYTES
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


@pytest.mark.parametrize("vmax", [8191, 8192])
def test_integral_model_at_the_table_cap_matches_reference(vmax):
    # 16 sweeps x (8191 + 1) entries x 8 bytes is exactly the cap; one column more calls exp
    model = IsingModel(4, {0: vmax - 1, 2: -3}, {(0, 1): 1, (1, 2): 2, (2, 3): -1})
    cfg = SamplerConfig(num_reads=40, sweeps=16, seed=vmax, beta_start=1e-4, beta_end=2e-3)
    assert (cfg.sweeps * (vmax + 1) * 8 <= samplers._TABLE_BYTES) == (vmax == 8191)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def test_star_model_matches_reference():
    # each flip of the hub moves 150 leaf fields, each leaf flip the hub's
    rng = np.random.default_rng(17)
    n = 151
    model = IsingModel(n, {0: 3, 5: -2}, {(0, q): int(rng.choice([-2, -1, 1, 2]))
                                          for q in range(1, n)})
    cfg = SamplerConfig(num_reads=20, sweeps=30, seed=8, beta_end=1.5)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def test_kernel_source_compiles_without_warnings():
    done = subprocess.run([samplers._CC, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           str(samplers._SOURCE)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        sample(H2, SamplerConfig(num_reads=1, sweeps=1, seed=-1))


def test_cold_and_warm_kernel_cache_give_identical_spins(private_kernel_cache):
    cfg = SamplerConfig(num_reads=30, sweeps=10, seed=12)
    cold = sample(H2, cfg).spins
    [lib] = private_kernel_cache.iterdir()  # the build left no temporary file
    assert private_kernel_cache.stat().st_mode & 0o777 == 0o700
    built = lib.stat().st_mtime_ns
    samplers._kernel.cache_clear()
    warm = sample(H2, cfg).spins
    assert list(private_kernel_cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == built
    assert np.array_equal(cold, warm)


def test_failed_kernel_build_carries_compiler_stderr(private_kernel_cache, monkeypatch):
    monkeypatch.setattr(samplers, "_CFLAGS", samplers._CFLAGS + ("-fno-such-option",))
    with pytest.raises(RuntimeError, match="(?s)'cc'.*no-such-option"):
        sample(H2, SamplerConfig(num_reads=1, sweeps=1))
    assert list(private_kernel_cache.iterdir()) == []


TWO_BETA_K = st.builds(lambda beta, k: float(np.exp(2.0 * beta * -k)),
                      st.floats(1e-4, 30.0), st.integers(0, 5000))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([0.0, 5e-324, 1.0]) | TWO_BETA_K, offset=st.integers(-2, 2))
@example(p=5e-324, offset=0)
@example(p=1.0, offset=-1)
def test_integer_acceptance_is_the_float_comparison(p, offset):
    # The integral kernel accepts when m < ceil(p * 2**53), where m is the 53-bit
    # integer of the uniform u = m / 2**53 it would otherwise compare with p.
    threshold = int(np.ceil(np.ldexp(np.array([p]), 53)).astype(np.uint64)[0])
    assert threshold <= 2**53
    m = threshold + offset
    if 0 <= m < 2**53:
        assert (m * 2.0**-53 < p) == (m < threshold)


@pytest.mark.parametrize("accepted", [False, True])
def test_uniform_next_to_its_acceptance_probability(accepted):
    # One qubit with h = 1 and one sweep at beta: read 0 makes one proposal, from
    # spin -1 (v = -1), accepted when its uniform u < p = exp(-2 beta).  beta is
    # moved ulp by ulp until p is as close to u as it gets from below (rejected) or
    # from above (accepted), so u's 53-bit integer m is at the table's threshold.
    model = IsingModel(1, {0: 1}, {})
    for seed in range(100):
        rng = _derived_rng(seed, 0)
        spin, u = 2 * int(rng.integers(0, 2, size=1)[0]) - 1, rng.random()
        if spin == -1 and u < 0.05:
            break

    def p_of(beta):  # as the sampler builds the table: 2 beta, times -k for k = 1
        return np.exp(np.outer(2.0 * np.linspace(beta, beta, 1), -np.arange(2)))[0, 1]

    beta = -np.log(u) / 2
    inward = np.inf if accepted else -np.inf  # raising beta lowers p
    while (p_of(beta) > u) != accepted:
        beta = np.nextafter(beta, -inward)
    while (p_of(np.nextafter(beta, inward)) > u) == accepted:
        beta = np.nextafter(beta, inward)
    assert np.ceil(np.ldexp(p_of(beta), 53)) == int(u * 2**53) + accepted
    cfg = SamplerConfig(num_reads=1, sweeps=1, beta_start=float(beta), beta_end=float(beta),
                        seed=seed)
    spins = sample(model, cfg).spins
    assert spins[0, 0] == (1 if accepted else -1)
    assert np.array_equal(spins, slow_anneal(model, cfg))


def test_uniforms_buffer_is_bounded():
    # Drawing every uniform up front would take 64 x 400 x 20 x 8 bytes, about 4 MB.
    chain = IsingModel(20, {q: 1 for q in range(0, 20, 3)},
                       {(q, q + 1): -1 for q in range(19)})
    sample(chain, SamplerConfig(num_reads=1, sweeps=1))  # caches and lazy imports
    cfg = SamplerConfig(num_reads=64, sweeps=400, seed=3)
    tracemalloc.start()
    try:
        sample(chain, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 400 * 20 * 8 // 8


def test_core_time_sequence():
    cfg = SamplerConfig(num_reads=5, sweeps=5, seed=1, core_time_per_read_us=20)
    records = sample(H2, cfg)
    assert [r.core_time_us for r in records] == [20, 40, 60, 80, 100]


def test_wall_time_overhead_accounting():
    overhead = OverheadModel(programming_us=1000, per_read_readout_us=180, post_us=50)
    cfg = SamplerConfig(
        num_reads=4, sweeps=5, seed=2, core_time_per_read_us=20, overhead=overhead
    )
    records = sample(H2, cfg)
    for r in records:
        reads_done = r.read_index + 1
        assert r.core_time_us == 20 * reads_done
        assert r.wall_time_us == 1000 + reads_done * (20 + 180) + 50
        assert r.wall_time_us - r.core_time_us == 1000 + reads_done * 180 + 50
    walls = [r.wall_time_us for r in records]
    cores = [r.core_time_us for r in records]
    assert walls == sorted(walls) and len(set(walls)) == len(walls)
    assert cores == sorted(cores) and len(set(cores)) == len(cores)


def test_energies_match_ising_energy():
    cfg = SamplerConfig(num_reads=40, sweeps=10, seed=3)
    batch = sample(H2, cfg)
    assert batch.energies.dtype == np.int64
    for record in batch:
        assert record.energy == slow_energy(H2, record.spins)


def test_batch_rows_are_plain_python_records():
    overhead = OverheadModel(programming_us=1000, per_read_readout_us=180, post_us=50)
    cfg = SamplerConfig(num_reads=6, sweeps=5, seed=6, overhead=overhead)
    batch = sample(H2, cfg)
    records = list(batch)
    assert len(batch) == len(records) == 6
    assert [r.read_index for r in records] == list(range(6))
    for r in records:
        assert type(r.energy) is int and all(type(s) is int for s in r.spins)
    columns = zip(*((r.spins, r.core_time_us, r.wall_time_us, r.energy) for r in records))
    assert_same_batch(batch_of(*columns), batch)


def test_h2_reaches_all_ground_states():
    # 200 reads at the default schedule; miss probability is negligible by design.
    cfg = SamplerConfig(num_reads=200, seed=11)
    records = sample(H2, cfg)
    _, ground = enumerate_ground_states(H2)
    assert ground <= {r.spins for r in records}


def test_decode_rules():
    cnf = Cnf.of(3, [[1, 2, 3]])
    model, layout = compile_cnf(cnf)
    # satisfying variable bits with a deliberately wrong ancilla still decode
    broken = batch_of([(1, -1, -1, -1)], [20], [20], [99])
    assert decode_all(broken, layout, cnf) == [(True, False, False)]
    # unsatisfying projection decodes to nothing
    pair = Cnf.of(2, [[1, 2]])
    pm, pl = compile_cnf(pair)
    low = batch_of([(-1, -1)], [20], [20], [3])
    assert decode_all(low, pl, pair) == [None]


def test_decode_defaults_unmapped_vars_false():
    cnf = Cnf.of(3, [[1, 3]])  # var 2 occurs nowhere
    model, layout = compile_cnf(cnf)
    rec = batch_of([(1, 1)], [20], [20], [-1])
    assert decode_all(rec, layout, cnf) == [(True, False, True)]


def test_decode_all_matches_projection_reference():
    cnf = Cnf.of(4, [[1, 2], [-2, 3], [3, 4]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=60, sweeps=20, seed=8)
    batch = sample(model, cfg)
    assert decode_all(batch, layout, cnf) == slow_decode(batch.spins.tolist(), layout, cnf)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    reads=st.integers(0, 12),
)
def test_decode_and_range_energies_match_references(seed, n, m, reads):
    rng = np.random.default_rng(seed)
    cnf = random_small_cnf(rng, n=n, m=m)
    model, layout = compile_cnf(cnf)
    spins = (2 * rng.integers(0, 2, size=(reads, model.num_qubits)) - 1).astype(np.int8)
    batch = SampleBatch(spins, np.zeros(reads, np.int64), np.zeros(reads, np.int64),
                        np.zeros(reads, np.int64))
    assert decode_all(batch, layout, cnf) == slow_decode(spins.tolist(), layout, cnf)

    lo, hi = sorted(int(q) for q in rng.integers(0, model.num_qubits + 1, size=2))
    inside = IsingModel(
        hi - lo,
        {q - lo: v for q, v in model.h.items() if lo <= q < hi},
        {(i - lo, j - lo): v for (i, j), v in model.J.items() if lo <= i and j < hi},
    )
    got = energies_of_states(model, spins[:, lo:hi], range(lo, hi))
    assert got.tolist() == [slow_energy(inside, tuple(row)) for row in spins[:, lo:hi].tolist()]


def test_decoded_solutions_satisfy(rng):
    cnf = Cnf.of(5, [[1, 2, 3], [-1, 4], [2, -5]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=300, sweeps=30, seed=21)
    for assignment in decode_all(sample(model, cfg), layout, cnf):
        if assignment is not None:
            assert evaluate(cnf, assignment)


def test_identity_gauge_matches_plain_sample_with_derived_seed():
    cfg = SamplerConfig(num_reads=30, sweeps=10, seed=77)
    [rotated] = sample_with_srt_rotation(H2, cfg, [(1, 1)])
    from cascor.samplers import _derived_seed

    plain = sample(H2, SamplerConfig(num_reads=30, sweeps=10, seed=_derived_seed(77, 0)))
    assert_same_batch(rotated, plain)


def test_srt_energies_are_in_original_frame():
    cnf = Cnf.of(3, [[1, 2, 3], [-1, 2]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=25, sweeps=20, seed=13)
    gauges = random_gauges(model.num_qubits, 3, seed=13)
    for run in sample_with_srt_rotation(model, cfg, gauges):
        for record in run:
            assert record.energy == slow_energy(model, record.spins)


def test_srt_decoded_union_within_solution_set():
    cnf = Cnf.of(4, [[1, 2, 3], [2, 3, 4]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=100, sweeps=30, seed=4)
    gauges = random_gauges(model.num_qubits, 2, seed=4)
    union = set()
    for run in sample_with_srt_rotation(model, cfg, gauges):
        union |= {a for a in decode_all(run, layout, cnf) if a is not None}
    assert union <= brute_force_solutions(cnf)
    assert union  # sampler finds something on an easy instance


def test_srt_gauge_dimension_check():
    cfg = SamplerConfig(num_reads=2, sweeps=2, seed=0)
    with pytest.raises(ValueError):
        sample_with_srt_rotation(H2, cfg, [(1, 1, 1)])


def test_record_json_roundtrip():
    runs = [batch_of([(1, -1, 1), (-1, -1, 1)], [20, 40], [2020, 4040], [-3, 1]),
            batch_of([(1, 1, 1)], [20], [2020], [-2.5])]
    decoded = [[(True, False, True), None], [(False, True, True)]]
    text = samples_to_jsonl(runs, decoded, gauged=True)
    # the line format: json.dumps of these keys in this order
    lines = [
        {"read": 0, "spins": [1, -1, 1], "energy": -3, "core_time_us": 20,
         "wall_time_us": 2020, "solution": "101", "gauge": 0},
        {"read": 1, "spins": [-1, -1, 1], "energy": 1, "core_time_us": 40,
         "wall_time_us": 4040, "solution": None, "gauge": 0},
        {"read": 0, "spins": [1, 1, 1], "energy": -2.5, "core_time_us": 20,
         "wall_time_us": 2020, "solution": "011", "gauge": 1},
    ]
    assert text == "".join(json.dumps(line) + "\n" for line in lines)
    for back, run in zip(samples_from_jsonl(text, 3), runs, strict=True):
        assert_same_batch(back, run)
    plain = samples_to_jsonl(runs[:1], decoded[:1], gauged=False)
    assert plain.splitlines()[1] == json.dumps({k: v for k, v in lines[1].items() if k != "gauge"})
    (back,) = samples_from_jsonl(plain, 3)
    assert_same_batch(back, runs[0])


def test_untagged_writer_refuses_several_runs():
    # untagged lines all read back as gauge 0, so two runs would not round-trip
    runs = [batch_of([(1, -1)], [20], [2020]), batch_of([(1, 1)], [20], [2020])]
    with pytest.raises(ValueError, match="gauge tags"):
        samples_to_jsonl(runs, [[None], [None]], gauged=False)


def test_sampled_runs_roundtrip_through_jsonl():
    cnf = Cnf.of(4, [[1, 2], [-2, 3], [3, 4]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=30, sweeps=10, seed=4)
    runs = sample_with_srt_rotation(model, cfg, random_gauges(model.num_qubits, 3, seed=4))
    decoded = [decode_all(run, layout, cnf) for run in runs]
    back = samples_from_jsonl(samples_to_jsonl(runs, decoded, gauged=True), model.num_qubits)
    assert len(back) == 3
    for a, b in zip(back, runs):
        assert_same_batch(a, b)


def reference_samples_jsonl(runs, decoded, gauged):
    """The sample JSONL text written line by line from plain values."""
    lines = []
    for gauge, (batch, solutions) in enumerate(zip(runs, decoded)):
        tag = f', "gauge": {gauge}' if gauged else ""
        rows = zip(batch.spins.tolist(), batch.energies.tolist(), batch.core_time_us.tolist(),
                   batch.wall_time_us.tolist(), solutions)
        for r, (spins, energy, core, wall, solution) in enumerate(rows):
            bits = "null" if solution is None else '"' + "".join("01"[b] for b in solution) + '"'
            lines.append(f'{{"read": {r}, "spins": {spins}, "energy": {json.dumps(energy)}, '
                         f'"core_time_us": {core}, "wall_time_us": {wall}, '
                         f'"solution": {bits}{tag}}}\n')
    return "".join(lines)


@st.composite
def sample_files(draw):
    """Runs, their decoded solutions and a gauged flag, with rows drawn from a few states."""
    n, num_vars = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    states = draw(st.lists(st.tuples(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
        st.none() | st.lists(st.booleans(), min_size=num_vars, max_size=num_vars).map(tuple),
    ), min_size=1, max_size=4))
    integral, gauged = draw(st.booleans()), draw(st.booleans())
    energy = st.integers(-2**62, 2**62) if integral else st.floats(allow_nan=False,
                                                                    allow_infinity=False)
    runs, decoded = [], []
    for _ in range(draw(st.integers(1, 3)) if gauged else 1):
        rows = draw(st.lists(st.sampled_from(states), min_size=1, max_size=12))
        k = len(rows)
        times = [np.cumsum(draw(st.lists(st.integers(0, 10**9), min_size=k, max_size=k)))
                 for _ in range(2)]
        energies = draw(st.lists(energy, min_size=k, max_size=k))
        runs.append(batch_of([spins for spins, _ in rows], *times,
                             np.array(energies, dtype=np.int64 if integral else np.float64)))
        decoded.append([solution for _, solution in rows])
    return runs, decoded, gauged, n


@settings(max_examples=150, deadline=None)
@given(sample_files())
def test_sample_text_roundtrip_matches_reference_writer(case):
    runs, decoded, gauged, n = case
    text = samples_to_jsonl(runs, decoded, gauged)
    assert text == reference_samples_jsonl(runs, decoded, gauged)
    back = samples_from_jsonl(text, n)
    assert len(back) == len(runs)
    for a, b in zip(back, runs):
        assert_same_batch(a, b)
    # JSON whitespace around a line's object, CRLF line ends and blank lines read the same
    spaced = "".join(f" \t{line}\r\n \n" for line in text.splitlines())
    for a, b in zip(samples_from_jsonl(spaced, n), runs, strict=True):
        assert_same_batch(a, b)


def test_sample_reader_keeps_no_line_dicts():
    # 4 gauges x 5000 reads of 20 qubits.  The reader that gathered a list per field
    # (each line's dict dropped after its line) peaked at 12.54 MB under CPython
    # 3.11; one that keeps every line's dict peaks at 24.7 MB.
    rng = np.random.default_rng(0)
    k, n = 5000, 20
    t = np.arange(1, k + 1, dtype=np.int64)
    runs = [batch_of(2 * rng.integers(0, 2, size=(k, n)) - 1, 20 * t, 100 + 25 * t,
                     rng.integers(-40, 40, size=k)) for _ in range(4)]
    text = samples_to_jsonl(runs, [[None] * k] * 4, gauged=True)
    samples_from_jsonl(text[:text.index("\n") + 1], n)  # caches and lazy imports
    tracemalloc.start()
    try:
        back = samples_from_jsonl(text, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for a, b in zip(back, runs, strict=True):
        assert_same_batch(a, b)
    assert peak < 12_540_000
