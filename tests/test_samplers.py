import functools
import io
import json
import operator
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascor._native as native
import cascor.samplers as samplers
from cascor.compiler import PenaltyLayout, compile_cnf
from cascor.ising import IsingModel, energies_of_states, enumerate_ground_states
from cascor.samplers import (
    SampleBatch,
    SamplerConfig,
    decode_all,
    random_gauges,
    sample,
    sample_with_srt_rotation,
    samples_from_jsonl,
    samples_to_jsonl,
)
from cascor.sat import (
    Cnf,
    LimitError,
    MixedSatSpec,
    _derived_rng,
    _derived_seed,
    evaluate,
    generate_mixed_sat,
)

from conftest import (
    assert_file_energies,
    assert_same_batch,
    batch_of,
    brute_force_solutions,
    random_small_cnf,
    slow_anneal,
    near_solutions,
    slow_decode,
    slow_energy,
    wide_cnfs,
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
    # the kernels take 2 beta: linspace to inf starts with NaN, and 2 * 1e308 is inf
    largest = np.finfo(float).max / 2
    for beta_end in (float("inf"), 1e308, np.nextafter(largest, np.inf)):
        with pytest.raises(ValueError, match="2 \\* beta_end must be finite"):
            SamplerConfig(beta_end=beta_end)
    assert SamplerConfig(beta_end=largest).beta_end == largest
    for name in ("core_time_per_read_us", "programming_us", "per_read_readout_us"):
        with pytest.raises(ValueError, match=name):
            SamplerConfig(**{name: -1})


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
    gauged=st.booleans(),
)
@example(seed=1, integral=True, reads=7, sweeps=7, gauged=False)
@example(seed=2, integral=False, reads=5, sweeps=4, gauged=False)
@example(seed=3, integral=True, reads=6, sweeps=5, gauged=True)
@example(seed=4, integral=False, reads=5, sweeps=6, gauged=True)
def test_sample_matches_reference_anneal(seed, integral, reads, sweeps, gauged):
    rng = np.random.default_rng(seed)
    if integral:
        cnf = random_small_cnf(rng, n=int(rng.integers(1, 7)), m=int(rng.integers(1, 7)))
        model, _ = compile_cnf(cnf)
    else:
        model = random_float_model(rng, int(rng.integers(1, 9)))
    cfg = SamplerConfig(num_reads=reads, sweeps=sweeps, seed=seed,
                        beta_end=float(rng.uniform(0.1, 8.0)))
    # the reference anneals model itself from the gauged initial spins
    gauge = tuple(rng.choice([-1, 1], size=model.num_qubits).tolist()) if gauged else None
    # Float-valued local fields may differ from the reference's in the last bit
    # (the dot products sum in another order), and libm's exp from numpy's; a
    # spin could differ only if a uniform fell within that rounding of its
    # acceptance probability.  A gauge only flips the signs of terms, and
    # rounding is symmetric in sign, so it adds no such difference.
    expected = slow_anneal(model, cfg, gauge=gauge)
    spins = sample(model, cfg, gauge=gauge).spins
    assert spins.dtype == expected.dtype and np.array_equal(spins, expected)
    assert spins.strides == expected.strides  # row-major, as consumers of reads expect


# seeds of one to seven entropy words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 1]


def dense_integral_model(n: int) -> IsingModel:
    rng = np.random.default_rng(n)
    return IsingModel.from_terms(
        n, {q: int(rng.integers(-2, 3)) for q in range(n)},
        {(i, j): int(rng.integers(-2, 3)) for i in range(n) for j in range(i + 1, n)})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 13])
def test_kernel_streams_match_reference(seed, n):
    # odd and even initial-spin draws
    model = dense_integral_model(n)
    cfg = SamplerConfig(num_reads=6, sweeps=9, seed=seed, beta_end=2.0)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def _cpu_flags() -> set[str]:
    try:
        return set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        return set()


# The kernel runs its sixteen-lane integral loop only on CPUs with these; elsewhere
# its dispatched entry is the scalar loop, and comparing the two shows nothing.
needs_lanes = pytest.mark.skipif(
    platform.machine() != "x86_64"
    or not {"avx512f", "avx512dq", "avx512vl", "avx512ifma", "avx512vbmi"} <= _cpu_flags(),
    reason="the CPU lacks AVX-512F, DQ, VL, IFMA or VBMI, so the kernel runs no lane loop")
INT_ENTRIES = [pytest.param("cascor_anneal_int", id="dispatched", marks=needs_lanes),
               pytest.param("cascor_anneal_int_scalar", id="scalar")]


def anneal_with(entry: str, model: IsingModel, cfg: SamplerConfig) -> np.ndarray:
    """samplers._anneal's spins, its integral loop called through the kernel symbol entry."""
    lib = native._kernel()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lib, "cascor_anneal_int", getattr(lib, entry))
        return samplers._anneal(model, cfg)


@pytest.mark.parametrize("entry", INT_ENTRIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 13])
def test_integral_loops_match_reference_for_any_read_count(entry, seed, n):
    # the last group of sixteen lanes holds 1, 15, 16, 1, 15 and 1 reads
    model = dense_integral_model(n)
    cfg = SamplerConfig(num_reads=33, sweeps=9, seed=seed, beta_end=2.0)
    expected = slow_anneal(model, cfg)
    for reads in (1, 15, 16, 17, 31, 33):
        spins = anneal_with(entry, model, replace(cfg, num_reads=reads))
        assert np.array_equal(spins, expected[:reads]), reads


def star_model() -> IsingModel:
    # each flip of the hub moves 150 leaf fields, each leaf flip the hub's
    rng = np.random.default_rng(17)
    return IsingModel(151, {0: 3, 5: -2}, {(0, q): int(rng.choice([-2, -1, 1, 2]))
                                           for q in range(1, 151)})


def table_cap_model(vmax: int) -> IsingModel:
    return IsingModel(4, {0: vmax - 1, 2: -3}, {(0, 1): 1, (1, 2): 2, (2, 3): -1})


def cnf_model(seed: int) -> IsingModel:
    rng = np.random.default_rng(seed)
    return compile_cnf(random_small_cnf(rng, n=int(rng.integers(1, 9)),
                                        m=int(rng.integers(1, 9))))[0]


EDGE_RUNS = {
    "star": (star_model, SamplerConfig(num_reads=20, sweeps=30, seed=8, beta_end=1.5)),
    "all-zero": (lambda: IsingModel(5, {}, {}), SamplerConfig(num_reads=11, sweeps=4, seed=3)),
    "table-cap": (lambda: table_cap_model(8191),
                  SamplerConfig(num_reads=40, sweeps=16, seed=8191, beta_start=1e-4,
                                beta_end=2e-3)),
    "1003-reads": (lambda: compile_cnf(Cnf.of(5, [[1, 2, 3], [-1, 4], [2, -5, 3, 4]]))[0],
                   SamplerConfig(num_reads=1003, sweeps=12, seed=31, beta_end=3.0)),
    # The lane loop holds the 32-bit tops of rows of at most 32 entries (vmax 31) in
    # two registers of sixteen and gathers wider rows from memory.  Rows of 8, 9, 16
    # and 17 fill part of the two registers, 32 fills both, and 33, 64 and 65 are
    # gathered.  At these betas spin 0 flips against its field of vmax - 2 or vmax,
    # the row's top.
    **{f"row-{vmax + 1}": (functools.partial(table_cap_model, vmax),
                           SamplerConfig(num_reads=43, sweeps=16, seed=vmax, beta_start=0.01,
                                         beta_end=0.1))
       for vmax in (7, 8, 15, 16, 31, 32, 63, 64)},
    # The widest rows the table cap allows at one and at two sweeps, gathered from
    # memory: spin 0's int32 field of about 2**17 still flips at these betas.
    "cap-1-sweep": (lambda: table_cap_model(131071),
                    SamplerConfig(num_reads=40, sweeps=1, seed=3, beta_start=1e-6,
                                  beta_end=1e-6)),
    "cap-2-sweeps": (lambda: table_cap_model(65535),
                     SamplerConfig(num_reads=40, sweeps=2, seed=4, beta_start=1e-6,
                                   beta_end=1e-5)),
}


@pytest.mark.parametrize("entry", INT_ENTRIES)
@pytest.mark.parametrize("case", sorted(EDGE_RUNS))
def test_integral_loops_match_reference_on_edge_models(entry, case):
    build, cfg = EDGE_RUNS[case]
    model = build()
    assert model.is_integral()
    assert np.array_equal(anneal_with(entry, model, cfg), slow_anneal(model, cfg))


def test_table_cap_keeps_lane_fields_within_int32():
    # The lane loop's int32 fields and steps 2 J reach twice the widest row, so the
    # kernel runs it for rows of at most 2**30 entries; the cap keeps rows far below.
    assert samplers._TABLE_BYTES // 8 <= 2**30
    # the "cap-" edge runs fill the table exactly
    for vmax, sweeps in ((131071, 1), (65535, 2)):
        assert sweeps * (vmax + 1) * 8 == samplers._TABLE_BYTES


@needs_lanes
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64), reads=st.integers(1, 40), sweeps=st.integers(1, 10))
def test_lane_loop_matches_scalar_loop(seed, reads, sweeps):
    model = cnf_model(seed)
    cfg = SamplerConfig(num_reads=reads, sweeps=sweeps, seed=seed,
                        beta_end=float(np.random.default_rng(seed).uniform(0.1, 8.0)))
    assert np.array_equal(anneal_with("cascor_anneal_int", model, cfg),
                          anneal_with("cascor_anneal_int_scalar", model, cfg))


@needs_lanes
def test_lane_loop_matches_scalar_loop_over_a_long_stream():
    # 300,000 proposals per lane, so the lane loop's PCG64 limbs carry far from seeding;
    # every |v| is at most 3, so the table stays under its cap and both integral loops run
    rng = np.random.default_rng(100)
    model = IsingModel.from_terms(100, {q: int(rng.integers(-1, 2)) for q in range(100)},
                                  {(q, q + 1): int(rng.choice([-1, 1])) for q in range(99)})
    cfg = SamplerConfig(num_reads=9, sweeps=3000, seed=2**64 + 3, beta_end=1.0)
    assert model.is_integral() and cfg.sweeps * 4 * 8 <= samplers._TABLE_BYTES
    assert np.array_equal(anneal_with("cascor_anneal_int", model, cfg),
                          anneal_with("cascor_anneal_int_scalar", model, cfg))


def first_proposal(seed: int, r: int, n: int) -> tuple[list[int], int]:
    """Read r's initial spins and the 53-bit integer m of its first uniform, from the
    stream slow_anneal draws read r from."""
    rng = _derived_rng(seed, r)
    spins = (2 * rng.integers(0, 2, size=n) - 1).tolist()
    return spins, int(rng.random() * 2**53)


@pytest.mark.parametrize("entry", INT_ENTRIES)
@pytest.mark.parametrize("h", [1, 65], ids=["register-row", "gathered-row"])
@pytest.mark.parametrize("case", ["reject-accept", "accept-reject", "saturated"])
def test_ties_of_the_top_32_bits_are_settled_exactly(entry, h, case):
    # One qubit with field h and one sweep: read r proposes once, from spin s, at
    # table index 0 for s = +1 and h for s = -1, and flips when its uniform's 53-bit
    # integer m is below that entry.  The entries m (rejects) and m + 1 (accepts) have
    # m's top 32 bits, m >> 21, so the lane loop's 32-bit test ties on them; they are
    # set for a read in lanes 0-7 and one in lanes 8-15.  2**53 saturates those bits.
    model = IsingModel(1, {0: h}, {})
    cfg = SamplerConfig(num_reads=16, sweeps=1, seed=7)
    draws = [first_proposal(cfg.seed, r, 1) for r in range(16)]
    m_up = next(m for spins, m in draws[:8] if spins == [1])
    m_down = next(m for spins, m in draws[8:] if spins == [-1])
    assert (m_up + 1) >> 21 == m_up >> 21 and (m_down + 1) >> 21 == m_down >> 21
    up, down = {"reject-accept": (m_up, m_down + 1), "accept-reject": (m_up + 1, m_down),
                "saturated": (m_up, 2**53)}[case]
    table = np.zeros((1, h + 1), dtype=np.uint64)
    table[0, 0], table[0, h] = up, down
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "_acceptance_table", lambda two_betas, vmax: table)
        spins = anneal_with(entry, model, cfg)
    expected = [[-s if m < (up if s == 1 else down) else s] for [s], m in draws]
    assert spins.tolist() == expected


def boltzmann_chi_square(model: IsingModel, beta: float, spins: np.ndarray) -> tuple[float, int]:
    """Pearson's chi-square of the spins' state counts against exp(-beta E), and its dof.

    States expected fewer than five times are pooled into one bin.
    """
    n = model.num_qubits
    codes = np.arange(1 << n)
    states = 1 - 2 * (codes[:, None] >> np.arange(n) & 1)  # bit q of a code: qubit q is -1
    energies = energies_of_states(model, states).astype(np.float64)
    expected = np.exp(-beta * (energies - energies.min()))
    expected *= len(spins) / expected.sum()
    observed = np.bincount((spins < 0) @ (1 << np.arange(n)), minlength=1 << n)
    pooled = expected < 5
    if pooled.any():
        observed = np.append(observed[~pooled], observed[pooled].sum())
        expected = np.append(expected[~pooled], expected[pooled].sum())
    return float(np.sum((observed - expected) ** 2 / expected)), len(expected) - 1


def boltzmann_model(scale: int = 1, integral: bool = True) -> IsingModel:
    rng = np.random.default_rng(6)
    h = {q: int(rng.integers(-2, 3)) * scale for q in range(6)}
    J = {(i, j): int(rng.integers(-2, 3)) * scale for i in range(6) for j in range(i + 1, 6)}
    if not integral:
        h = {q: v + 0.25 for q, v in h.items()}
    return IsingModel.from_terms(6, h, J)


# 40,000 reads of 30 sweeps at one temperature; the past-table model is the
# integral one scaled by 2000 at beta / 2000, so all three share one law.
BOLTZMANN_RUNS = {
    "integral": (boltzmann_model(), 0.4),
    "float": (boltzmann_model(integral=False), 0.4),
    "past-table": (boltzmann_model(2000), 0.4 / 2000),
}


@pytest.mark.parametrize("case, entry", [
    *(pytest.param("integral", e.values[0], id=f"integral-{e.id}", marks=e.marks)
      for e in INT_ENTRIES),
    pytest.param("float", None, id="float"),
    pytest.param("past-table", None, id="past-table")])
def test_fixed_temperature_anneal_draws_the_boltzmann_distribution(case, entry):
    # At beta_start = beta_end, each Metropolis step keeps exp(-beta E) stationary;
    # 30 sweeps of 6 qubits from uniform states mix to it well within sampling noise.
    model, beta = BOLTZMANN_RUNS[case]
    cfg = SamplerConfig(num_reads=40_000, sweeps=30, seed=2016,
                        beta_start=beta, beta_end=beta)
    spins = samplers._anneal(model, cfg) if entry is None else anneal_with(entry, model, cfg)
    if case == "past-table":
        vmax = max(abs(model.h.get(q, 0)) + sum(abs(v) for pair, v in model.J.items() if q in pair)
                   for q in range(model.num_qubits))
        assert model.is_integral() and cfg.sweeps * (vmax + 1) * 8 > samplers._TABLE_BYTES
    chi2, dof = boltzmann_chi_square(model, beta, spins)
    # five standard deviations of chi-square above its mean, p about 1e-5
    assert chi2 < dof + 5 * np.sqrt(2 * dof), (chi2, dof)


def test_integral_model_beyond_the_table_cap_matches_reference():
    # a field of 10^6 would need 10^6 + 8 table entries per sweep, so the kernel calls exp
    model = IsingModel(5, {0: 10**6, 1: -3, 3: 2}, {(0, 1): 1, (1, 2): -2, (2, 3): 1, (3, 4): 3})
    cfg = SamplerConfig(num_reads=50, sweeps=20, seed=4, beta_end=1.0)
    assert cfg.sweeps * (10**6 + 8) * 8 > samplers._TABLE_BYTES
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


@pytest.mark.parametrize("vmax", [8191, 8192])
def test_integral_model_at_the_table_cap_matches_reference(vmax):
    # 16 sweeps x (8191 + 1) entries x 8 bytes is exactly the cap; one column more calls exp
    model = table_cap_model(vmax)
    cfg = SamplerConfig(num_reads=40, sweeps=16, seed=vmax, beta_start=1e-4, beta_end=2e-3)
    assert (cfg.sweeps * (vmax + 1) * 8 <= samplers._TABLE_BYTES) == (vmax == 8191)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def test_star_model_matches_reference():
    model = star_model()
    cfg = SamplerConfig(num_reads=20, sweeps=30, seed=8, beta_end=1.5)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def test_table_products_past_the_float_range_are_zero_entries():
    # 2 beta_end is finite, but 2 beta_end x k overflows for k >= 2: exp(-inf) = 0,
    # the reference's probability, with no overflow warning from the table
    model, _ = compile_cnf(Cnf.of(3, [[1, 2], [-1, 3]]))
    cfg = SamplerConfig(num_reads=30, sweeps=6, seed=2, beta_end=8e307)
    assert np.array_equal(sample(model, cfg).spins, slow_anneal(model, cfg))


def test_kernel_source_compiles_without_warnings(tmp_path):
    # a full optimised build, since some warnings (maybe-uninitialized, array-bounds)
    # come only from the optimiser's passes
    done = subprocess.run([native._CC, *native._CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "_anneal.so"), str(native._SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# Loads the kernel built at argv[1] through _native._kernel and anneals
# integral models (among them ones with acceptance rows of 16, 32 and 64
# entries and with one entry more: 32 is the lane loop's limit for its two
# registers, and wider rows are gathered) through both integral loops, at
# seeds of one and of three entropy words, and a float model and an integral one past the table cap through the float
# loop; anneals 16 reads of one proposal on a table whose entries tie with two
# reads' top 32 bits (test_ties_of_the_top_32_bits_are_settled_exactly) through
# both integral loops; anneals one long run of 17 reads x 2000
# sweeps through both integral loops, a full group of sixteen lanes and a
# partial one, so the lane loop's PCG64 limbs carry well past seeding; writes
# and scans sample text through the codec, whole, cut at every byte and past
# int64; then draws mixed-SAT instances, with clauses as long as their variable
# count, and counts their solutions below and at 2**n, at variable counts on
# either side of the counter's 6-bit word and 12.
_UBSAN_CHILD = """
import sys
from pathlib import Path

import numpy as np

from cascor import _native, samplers
from cascor.compiler import compile_cnf
from cascor.ising import IsingModel
from cascor.sat import Cnf, _derived_rng

_native._build_kernel = lambda: Path(sys.argv[1])
lib = _native._kernel()
models = [compile_cnf(Cnf.of(5, [[1, 2, 3], [-1, 4], [2, -5, 3, 4]]))[0],
          IsingModel(4, {0: 0.5, 2: -1.25}, {(0, 1): 0.75, (1, 3): -0.5}),
          IsingModel(3, {0: 10**6}, {(0, 1): 1, (1, 2): -2}),
          *(IsingModel(3, {0: h}, {(0, 1): 1, (1, 2): -2}) for h in (14, 15, 30, 31, 62, 63))]
cfg, wide = (samplers.SamplerConfig(num_reads=19, sweeps=7, seed=seed) for seed in (5, 2**64 + 3))
long = samplers.SamplerConfig(num_reads=17, sweeps=2000, seed=2**64 + 3, beta_end=1.0)
one, tie = IsingModel(1, {0: 1}, {}), samplers.SamplerConfig(num_reads=16, sweeps=1, seed=7)
draws = []
for r in range(16):
    rng = _derived_rng(tie.seed, r)
    draws.append((int(rng.integers(0, 2, size=1)[0]), int(rng.random() * 2**53)))
table = np.array([[next(m for s, m in draws[:8] if s == 1),
                   next(m for s, m in draws[8:] if s == 0) + 1]], dtype=np.uint64)
acceptance_table = samplers._acceptance_table
runs = []
for entry in (lib.cascor_anneal_int, lib.cascor_anneal_int_scalar):
    lib.cascor_anneal_int = entry
    runs.append([samplers._anneal(model, c) for model in models for c in (cfg, wide)]
                + [samplers._anneal(models[0], long)])
    samplers._acceptance_table = lambda two_betas, vmax: table
    runs[-1].append(samplers._anneal(one, tie))
    samplers._acceptance_table = acceptance_table
assert all(np.array_equal(a, b) for a, b in zip(*runs))
assert runs[0][-1].tolist() == [[1 - 2 * s if m < table[0, 1 - s] else 2 * s - 1]
                                for s, m in draws]

batches = samplers.sample_with_srt_rotation(models[1], cfg, samplers.random_gauges(4, 2, 5))
batches.append(samplers.SampleBatch(batches[0].spins[:2], np.array([0, 2**63 - 1]),
                                    np.array([0, 2**63 - 1])))
text = samplers.samples_to_jsonl(models[1], batches, [[None] * len(b) for b in batches], True)
assert len(samplers.samples_from_jsonl(b"".join(text.splitlines(True)[:38]), 4)) == 2
for end in range(len(text) + 1):
    samplers._writer_columns(text[:end])
assert samplers._writer_columns(text.replace(b"%d" % (2**63 - 1), b"%d" % 2**63)) is None

from cascor import allsat, sat
for n in (1, 6, 7, 12, 13, 20, 26):
    spec = sat.MixedSatSpec(n, 40, {1: 1.0, (n + 1) // 2: 2.0, n: 1.0}, 2**64 + 3, 1)
    cnf = sat._draw_instance(spec, 2**32 + 5)
    count = allsat.count_solutions_capped(cnf, 2**n)
    assert allsat.count_solutions_capped(cnf, 1) == (count if count <= 1 else None)
    assert allsat.count_solutions_capped(sat.Cnf(n), 2**n) == 2**n
    assert allsat.count_solutions_capped(sat.Cnf(n), 2**n - 1) is None
print("ok")
"""


def test_kernel_runs_clean_under_ubsan(tmp_path):
    # UBSan aborts the child at a misaligned vector access or an overflowing shift,
    # which a byte-equality test would show at best as a crash.
    flags = [*native._CFLAGS, "-fsanitize=undefined", "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x + 1; }\n")
    if subprocess.run([native._CC, *flags, "-o", str(tmp_path / "probe.so"), str(probe)],
                      capture_output=True).returncode != 0:
        pytest.skip(f"{native._CC} cannot link UBSan")
    lib = tmp_path / "_anneal-ubsan.so"
    done = subprocess.run([native._CC, *flags, "-o", str(lib), str(native._SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    paths = [str(Path(samplers.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run([sys.executable, "-c", _UBSAN_CHILD, str(lib)], capture_output=True,
                           text=True, env=env, timeout=120)
    assert child.returncode == 0 and child.stdout == "ok\n", child.stderr


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        sample(H2, SamplerConfig(num_reads=1, sweeps=1, seed=-1))


def test_cold_and_warm_kernel_cache_give_identical_spins(private_kernel_cache):
    cfg = SamplerConfig(num_reads=30, sweeps=10, seed=12)
    cold = sample(H2, cfg).spins
    [lib] = private_kernel_cache.iterdir()  # the build left no temporary file
    assert private_kernel_cache.stat().st_mode & 0o777 == 0o700
    built = lib.stat().st_mtime_ns
    native._kernel.cache_clear()
    warm = sample(H2, cfg).spins
    assert list(private_kernel_cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == built
    assert np.array_equal(cold, warm)


def test_failed_kernel_build_carries_compiler_stderr(private_kernel_cache, monkeypatch):
    monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-fno-such-option",))
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
    cfg = SamplerConfig(num_reads=4, sweeps=5, seed=2, core_time_per_read_us=20,
                        programming_us=1050, per_read_readout_us=180)
    records = sample(H2, cfg)
    for r in records:
        reads_done = r.read_index + 1
        assert r.core_time_us == 20 * reads_done
        assert r.wall_time_us == 1050 + reads_done * (20 + 180)
        assert r.wall_time_us - r.core_time_us == 1050 + reads_done * 180
    walls = [r.wall_time_us for r in records]
    cores = [r.core_time_us for r in records]
    assert walls == sorted(walls) and len(set(walls)) == len(walls)
    assert cores == sorted(cores) and len(set(cores)) == len(cores)


def test_run_clock_must_fit_int64():
    # the run's last wall time, programming + reads * (core + readout), bounds every time
    fits = dict(num_reads=3, sweeps=1, core_time_per_read_us=2**61, per_read_readout_us=2**59,
                programming_us=2**59 - 1)
    batch = sample(H2, SamplerConfig(**fits))
    assert batch.core_time_us.tolist() == [2**61, 2**62, 3 * 2**61]
    assert batch.wall_time_us[-1] == 2**63 - 1
    for past in (dict(fits, programming_us=2**59), dict(fits, core_time_per_read_us=10**20)):
        with pytest.raises(ValueError, match="past int64"):
            SamplerConfig(**past)


def test_config_bounds_its_schedule_when_built(monkeypatch):
    # two floats per sweep and 8 bytes per row: 62 sweeps take 992 bytes, 63 take 1008
    monkeypatch.setattr(native, "_RUN_BYTES", 1000)
    cfg = SamplerConfig(num_reads=1, sweeps=62)
    with pytest.raises(LimitError, match="anneal schedule of 63 rows x 8 would take 1008"):
        SamplerConfig(num_reads=1, sweeps=63)
    with pytest.raises(LimitError, match="anneal schedule of 63 rows"):
        replace(cfg, sweeps=63)


@pytest.mark.parametrize("name", ["core_time_us", "wall_time_us"])
@pytest.mark.parametrize("times, read", [([20, 10], 1), ([-1, 5], 0), ([-2**63, 0], 0),
                                         ([2**63 - 1, -2**63], 1)])
def test_batch_checks_its_own_times(name, times, read):
    # each time is compared with the one before it (0 before the first), never
    # subtracted: np.diff of [2**63 - 1, -2**63] wraps to 1
    arrays = {"core_time_us": np.zeros(2, np.int64), "wall_time_us": np.zeros(2, np.int64),
              name: np.array(times, np.int64)}
    with pytest.raises(ValueError, match=f"^{name} times decrease at read {read},"):
        SampleBatch(np.ones((2, 1), np.int8), **arrays)


def test_batch_times_are_int64_one_per_read_and_read_only():
    spins, times = np.ones((2, 1), np.int8), np.array([1, 2], np.int64)
    for bad in (times.astype(np.int32), np.arange(3, dtype=np.int64), times[None]):
        with pytest.raises(ValueError, match=r"wall_time_us must be int64 of shape \(2,\)"):
            SampleBatch(spins, times, bad)
    batch = SampleBatch(spins, times, times + 1)
    assert not any(a.flags.writeable for a in (batch.spins, batch.core_time_us, batch.wall_time_us))


def test_energies_match_ising_energy():
    cfg = SamplerConfig(num_reads=40, sweeps=10, seed=3)
    batch = sample(H2, cfg)
    assert_file_energies(H2, samples_to_jsonl(H2, [batch], [[None] * 40], gauged=False))


def test_batch_rows_are_plain_python_records():
    cfg = SamplerConfig(num_reads=6, sweeps=5, seed=6, programming_us=1050,
                        per_read_readout_us=180)
    batch = sample(H2, cfg)
    records = list(batch)
    assert len(batch) == len(records) == 6
    assert [r.read_index for r in records] == list(range(6))
    for r in records:
        assert all(type(s) is int for s in r.spins)
    columns = zip(*((r.spins, r.core_time_us, r.wall_time_us) for r in records))
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
    broken = batch_of([(1, -1, -1, -1)], [20], [20])
    assert decode_all(broken, layout, cnf) == [(True, False, False)]
    # unsatisfying projection decodes to nothing
    pair = Cnf.of(2, [[1, 2]])
    pm, pl = compile_cnf(pair)
    low = batch_of([(-1, -1)], [20], [20])
    assert decode_all(low, pl, pair) == [None]


def test_decode_defaults_unmapped_vars_false():
    cnf = Cnf.of(3, [[1, 3]])  # var 2 occurs nowhere
    model, layout = compile_cnf(cnf)
    rec = batch_of([(1, 1)], [20], [20])
    assert decode_all(rec, layout, cnf) == [(True, False, True)]


def _ring(n: int) -> tuple[Cnf, PenaltyLayout]:
    """Implications x_v -> x_{v+1} around n variables, each on qubit v - 1."""
    cnf = Cnf.of(n, [[-v, v % n + 1] for v in range(1, n + 1)])
    return cnf, PenaltyLayout({v: v - 1 for v in range(1, n + 1)}, ((),) * n, (-1,) * n, -n, n)


def test_decode_all_packs_its_clause_masks_into_words():
    # the masks of 4000 clauses over 4000 variables take 2 x 4000 x 63 words, 4 MB;
    # as bools before packing they took 32 MB, and their padded copies as much again
    cnf, layout = _ring(4000)
    tracemalloc.start()
    try:
        assert decode_all(batch_of([(1,) * 4000], [20], [20]), layout, cnf) == [(True,) * 4000]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_clause_masks_past_the_run_size_limit_are_refused_before_allocating():
    # 40,000 clauses over 40,000 variables: 400 MB of masks for one read
    cnf, layout = _ring(40_000)
    batch = batch_of([(1,) * 40_000], [20], [20])
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="clause masks"):
            decode_all(batch, layout, cnf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@given(cnf=wide_cnfs(), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_decode_all_matches_projection_reference_across_words(cnf, seed):
    # each assignment on two reads whose ancillas may differ: distinct rows, one tuple
    model, layout = compile_cnf(cnf)
    rng = np.random.default_rng(seed)
    bits = np.tile(near_solutions(cnf, rng, 12), (2, 1))
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), (len(bits), model.num_qubits))
    variables = list(layout.var_to_qubit)
    spins[:, [layout.var_to_qubit[v] for v in variables]] = np.where(
        bits[:, [v - 1 for v in variables]], 1, -1)
    batch = batch_of(spins, range(1, 25), range(1, 25))
    assert decode_all(batch, layout, cnf) == slow_decode(spins.tolist(), layout, cnf)


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
    batch = SampleBatch(spins, np.zeros(reads, np.int64), np.zeros(reads, np.int64))
    assert decode_all(batch, layout, cnf) == slow_decode(spins.tolist(), layout, cnf)

    lo, hi = sorted(int(q) for q in rng.integers(0, model.num_qubits + 1, size=2))
    inside = IsingModel(
        hi - lo,
        {q - lo: v for q, v in model.h.items() if lo <= q < hi},
        {(i - lo, j - lo): v for (i, j), v in model.J.items() if lo <= i and j < hi},
    )
    got = energies_of_states(model, spins[:, lo:hi], range(lo, hi))
    assert got.tolist() == [slow_energy(inside, tuple(row)) for row in spins[:, lo:hi].tolist()]


@st.composite
def decode_batches(draw):
    """A CNF, a layout of its used variables, and a batch of a few rows, each repeated.

    The used variables, up to 150, are split into clauses of one to four.
    The rows are a base row with up to three variables flipped each, so they
    can differ in a single variable; half the base rows satisfy every clause
    through its first literal.
    """
    num_vars = draw(st.one_of(st.integers(0, 10), st.integers(60, 150)))
    used = draw(st.permutations(range(1, num_vars + 1)))[:draw(st.integers(0, num_vars))]
    clauses = []
    while len(used) > sum(map(len, clauses)):
        start = sum(map(len, clauses))
        clauses.append([v if draw(st.booleans()) else -v
                        for v in used[start:start + draw(st.integers(1, 4))]])
    num_qubits = len(used) + draw(st.integers(0, 3))
    layout = PenaltyLayout(dict(zip(used, draw(st.permutations(range(num_qubits))))),
                           (), (), 0.0, num_qubits)
    base = [draw(st.sampled_from([-1, 1])) for _ in range(num_qubits)]
    if draw(st.booleans()):
        for clause in clauses:
            base[layout.var_to_qubit[abs(clause[0])]] = 1 if clause[0] > 0 else -1
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = list(base)
        for var in draw(st.lists(st.sampled_from(used), max_size=3)) if used else []:
            row[layout.var_to_qubit[var]] *= -1
        rows.append(row)
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=30))
    spins = np.array([rows[p] for p in picks], dtype=np.int8).reshape(len(picks), num_qubits)
    return Cnf.of(num_vars, clauses), layout, spins


def _empty_layout(num_qubits):
    return PenaltyLayout({}, (), (), 0.0, num_qubits)


@settings(max_examples=150, deadline=None)
@given(case=decode_batches())
@example(case=(Cnf(0), _empty_layout(0), np.zeros((0, 0), np.int8)))  # no variables, no reads
@example(case=(Cnf(0), _empty_layout(2), np.ones((3, 2), np.int8)))  # no variables
@example(case=(Cnf(4), _empty_layout(1), -np.ones((2, 1), np.int8)))  # no clauses
@example(case=(Cnf.of(3, [[-2]]), PenaltyLayout({2: 0}, (), (), 0.0, 1),
               np.zeros((0, 1), np.int8)))  # an empty batch
@example(case=(Cnf.of(3, [[-1, 2], [1, 3]]), PenaltyLayout({3: 0}, (), (), 0.0, 1),
               np.array([[1], [-1], [1]], np.int8)))  # clause variables without a qubit
@example(case=(Cnf.of(70, [*([v] for v in range(1, 69)), [69, 70]]),
               PenaltyLayout({v: v - 1 for v in range(1, 71)}, (), (), 0.0, 70),
               np.array([[1] * 70, [1] * 69 + [-1]], np.int8)))  # rows apart past 64 bits
def test_decode_all_matches_the_per_read_reference(case):
    cnf, layout, spins = case
    batch = SampleBatch(spins, np.zeros(len(spins), np.int64), np.zeros(len(spins), np.int64))
    decoded = decode_all(batch, layout, cnf)
    assert decoded == slow_decode(spins.tolist(), layout, cnf)


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
    plain = sample(H2, SamplerConfig(num_reads=30, sweeps=10, seed=_derived_seed(77, 0)))
    assert_same_batch(rotated, plain)


@pytest.mark.parametrize("spec_seed", range(4))
def test_gauged_run_is_the_plain_anneal_from_gauged_initial_spins(spec_seed):
    # v = s_i * local_i is gauge-invariant, so un-gauged, run g replays the
    # original model from g times each read's initial spins on run g's streams
    spec = MixedSatSpec(10, 12, {2: 1.0, 3: 1.0}, spec_seed, 100)  # the srt-files family
    model, _ = compile_cnf(generate_mixed_sat(spec)[0])
    cfg = SamplerConfig(num_reads=200, sweeps=30, seed=spec_seed)
    gauges = random_gauges(model.num_qubits, 3, seed=spec_seed)
    for g, (gauge, run) in enumerate(zip(gauges, sample_with_srt_rotation(model, cfg, gauges))):
        plain = replace(cfg, seed=_derived_seed(cfg.seed, g))
        assert np.array_equal(run.spins, slow_anneal(model, plain, gauge=gauge))


def test_srt_energies_are_in_original_frame():
    cnf = Cnf.of(3, [[1, 2, 3], [-1, 2]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=25, sweeps=20, seed=13)
    runs = sample_with_srt_rotation(model, cfg, random_gauges(model.num_qubits, 3, seed=13))
    decoded = [decode_all(run, layout, cnf) for run in runs]
    assert_file_energies(model, samples_to_jsonl(model, runs, decoded, gauged=True))


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


def test_srt_rotation_builds_one_batch_per_run_after_checking_every_gauge(monkeypatch):
    # sample reads a gauged run back into model's frame before it builds the batch
    built, post_init = [], SampleBatch.__post_init__

    def counted(batch):
        built.append(batch)
        post_init(batch)

    monkeypatch.setattr(SampleBatch, "__post_init__", counted)
    cfg = SamplerConfig(num_reads=20, sweeps=5, seed=8)
    runs = sample_with_srt_rotation(H2, cfg, [(1, 1), (-1, 1), (-1, -1)])
    assert len(built) == 3 and all(map(operator.is_, runs, built))
    # every gauge's length is checked before the first run anneals
    monkeypatch.setattr(samplers, "_anneal", lambda *args: pytest.fail("annealed a run"))
    with pytest.raises(ValueError, match="gauge 1 has length 3, model has 2 qubits"):
        sample_with_srt_rotation(H2, cfg, [(1, 1), (1, 1, 1)])


def test_random_gauges_are_bounded_before_any_is_drawn(monkeypatch):
    # count gauges of 2 qubits take count x (2 + 8) bytes against the patched limit
    monkeypatch.setattr(native, "_RUN_BYTES", 1000)
    assert len(random_gauges(2, 100, seed=0)) == 100
    monkeypatch.setattr(samplers, "_derived_rng", lambda *args: pytest.fail("drew a gauge"))
    with pytest.raises(LimitError, match="gauges of 101 rows"):
        random_gauges(2, 101, seed=0)


def test_srt_rotation_is_bounded_as_a_whole(monkeypatch):
    # each run of 50 reads of 2 qubits fits the patched limit; two runs fit, three do not
    monkeypatch.setattr(native, "_RUN_BYTES", 1000)
    cfg = SamplerConfig(num_reads=50, sweeps=2, seed=0)
    assert len(sample_with_srt_rotation(H2, cfg, [(1, 1), (-1, 1)])) == 2
    monkeypatch.setattr(samplers, "sample", lambda *args: pytest.fail("sampled a run"))
    with pytest.raises(LimitError, match="spins of every gauge of 150 rows"):
        sample_with_srt_rotation(H2, cfg, [(1, 1), (-1, 1), (1, -1)])


def test_record_json_roundtrip():
    model = IsingModel.from_terms(3, {0: -1.5, 2: -1}, {(0, 1): 1})
    runs = [batch_of([(1, -1, 1), (-1, -1, 1)], [20, 40], [2020, 4040]),
            batch_of([(1, 1, 1)], [20], [2020])]
    decoded = [[(True, False, True), None], [(False, True, True)]]
    text = samples_to_jsonl(model, runs, decoded, gauged=True)
    # the line format: json.dumps of these keys in this order
    lines = [
        {"read": 0, "spins": [1, -1, 1], "energy": -3.5, "core_time_us": 20,
         "wall_time_us": 2020, "solution": "101", "gauge": 0},
        {"read": 1, "spins": [-1, -1, 1], "energy": 1.5, "core_time_us": 40,
         "wall_time_us": 4040, "solution": None, "gauge": 0},
        {"read": 0, "spins": [1, 1, 1], "energy": -1.5, "core_time_us": 20,
         "wall_time_us": 2020, "solution": "011", "gauge": 1},
    ]
    assert text == "".join(json.dumps(line) + "\n" for line in lines).encode()
    assert_file_energies(model, text)
    for back, run in zip(samples_from_jsonl(text, 3), runs, strict=True):
        assert_same_batch(back, run)
    plain = samples_to_jsonl(model, runs[:1], decoded[:1], gauged=False)
    assert plain.splitlines()[1].decode() == json.dumps(
        {k: v for k, v in lines[1].items() if k != "gauge"})
    (back,) = samples_from_jsonl(plain, 3)
    assert_same_batch(back, runs[0])


def test_zero_qubit_runs_roundtrip_through_jsonl():
    # no spins to compare: every read of both runs is the one empty row, so it has
    # one solution
    runs = [batch_of(np.empty((3, 0)), [20, 40, 60], [20, 40, 60]),
            batch_of(np.empty((1, 0)), [5], [5])]
    with pytest.raises(ValueError, match="one solution per distinct spins row of the file"):
        samples_to_jsonl(IsingModel(0), runs, [[None] * 3, [()]], gauged=True)
    text = samples_to_jsonl(IsingModel(0), runs, [[None] * 3, [None]], gauged=True)
    assert text.splitlines()[3].decode() == json.dumps({"read": 0, "spins": [], "energy": 0,
                                                        "core_time_us": 5, "wall_time_us": 5,
                                                        "solution": None, "gauge": 1})
    for back, run in zip(samples_from_jsonl(text, 0), runs, strict=True):
        assert_same_batch(back, run)


def test_untagged_writer_refuses_several_runs():
    # untagged lines all read back as gauge 0, so two runs would not round-trip
    runs = [batch_of([(1, -1)], [20], [2020]), batch_of([(1, 1)], [20], [2020])]
    with pytest.raises(ValueError, match="gauge tags"):
        samples_to_jsonl(IsingModel(2), runs, [[None], [None]], gauged=False)


def test_sampled_runs_roundtrip_through_jsonl():
    cnf = Cnf.of(4, [[1, 2], [-2, 3], [3, 4]])
    model, layout = compile_cnf(cnf)
    cfg = SamplerConfig(num_reads=30, sweeps=10, seed=4)
    runs = sample_with_srt_rotation(model, cfg, random_gauges(model.num_qubits, 3, seed=4))
    decoded = [decode_all(run, layout, cnf) for run in runs]
    text = samples_to_jsonl(model, runs, decoded, gauged=True)
    back = samples_from_jsonl(text, model.num_qubits)
    assert len(back) == 3
    for a, b in zip(back, runs):
        assert_same_batch(a, b)


def reference_samples_jsonl(model, runs, decoded, gauged):
    """The sample JSONL text written line by line from plain values and slow_energy."""
    lines = []
    for gauge, (batch, solutions) in enumerate(zip(runs, decoded)):
        tag = f', "gauge": {gauge}' if gauged else ""
        rows = zip(batch.spins.tolist(), batch.core_time_us.tolist(),
                   batch.wall_time_us.tolist(), solutions)
        for r, (spins, core, wall, solution) in enumerate(rows):
            bits = "null" if solution is None else '"' + "".join("01"[b] for b in solution) + '"'
            energy = json.dumps(slow_energy(model, tuple(spins)))
            lines.append(f'{{"read": {r}, "spins": {spins}, "energy": {energy}, '
                         f'"core_time_us": {core}, "wall_time_us": {wall}, '
                         f'"solution": {bits}{tag}}}\n')
    return "".join(lines)


@st.composite
def sample_files(draw):
    """A model, runs, their decoded solutions and a gauged flag, with rows drawn from a few states.

    Each distinct spins row has one solution, as decode_all gives it.

    Integral models keep sum|h| + sum|J| below 2**53.  Float coefficients are
    odd multiples, below 2**20, of powers of two from 2**(e - 20) to 2**(e - 1)
    for one drawn e <= 0: each is fractional, and every energy is a multiple of
    2**(e - 20) below 2**(e + 24), exact in float64 in any order of summation,
    so slow_energy gives the same value.
    """
    n, num_vars = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    states = draw(st.lists(st.tuples(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
        st.none() | st.lists(st.booleans(), min_size=num_vars, max_size=num_vars).map(tuple),
    ), min_size=1, max_size=4))
    solution_of = {}
    for spins, solution in states:
        solution_of.setdefault(tuple(spins), solution)
    integral, gauged = draw(st.booleans()), draw(st.booleans())
    if integral:
        coefficient = st.integers(-2**48, 2**48)
    else:
        e = draw(st.integers(-1000, 0))
        coefficient = st.builds(lambda m, d: (2 * m + 1) * 2.0**(e - d),
                                st.integers(-2**19, 2**19 - 1), st.integers(1, 20))
    h = draw(st.dictionaries(st.sampled_from(range(n)), coefficient))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    J = draw(st.dictionaries(st.sampled_from(pairs), coefficient)) if pairs else {}
    model = IsingModel.from_terms(n, h, J)
    runs, decoded = [], []
    for _ in range(draw(st.integers(1, 3)) if gauged else 1):
        rows = draw(st.lists(st.sampled_from(list(solution_of)), min_size=1, max_size=12))
        k = len(rows)
        times = [np.cumsum(draw(st.lists(st.integers(0, 10**9), min_size=k, max_size=k)))
                 for _ in range(2)]
        runs.append(batch_of(rows, *times))
        decoded.append([solution_of[spins] for spins in rows])
    return model, runs, decoded, gauged


@settings(max_examples=150, deadline=None)
@given(sample_files())
def test_sample_text_roundtrip_matches_reference_writer(case):
    model, runs, decoded, gauged = case
    n = model.num_qubits
    text = samples_to_jsonl(model, runs, decoded, gauged)
    assert text == reference_samples_jsonl(model, runs, decoded, gauged).encode()
    back = samples_from_jsonl(text, n)
    assert len(back) == len(runs)
    for a, b in zip(back, runs):
        assert_same_batch(a, b)
    # JSON whitespace around a line's object, CRLF line ends and blank lines read the same
    spaced = b"".join(b" \t%s\r\n \n" % line for line in text.splitlines())
    for a, b in zip(samples_from_jsonl(spaced, n), runs, strict=True):
        assert_same_batch(a, b)


@settings(max_examples=100, deadline=None)
@given(sample_files(), st.data())
def test_writer_refuses_a_solution_that_differs_from_its_rows(case, data):
    # decode_all gives every read of a spins row one solution, and the writer one text
    # per row of the file, whichever runs hold it
    model, runs, decoded, gauged = case
    g = data.draw(st.integers(0, len(runs) - 1))
    r = data.draw(st.integers(0, len(runs[g]) - 1))
    decoded[g][r] = (*(decoded[g][r] or ()), True)
    if sum(np.all(run.spins == runs[g].spins[r], axis=1).sum() for run in runs) > 1:
        with pytest.raises(ValueError, match="one solution per distinct spins row"):
            samples_to_jsonl(model, runs, decoded, gauged)
    else:  # read r is its row's only read in the file
        text = samples_to_jsonl(model, runs, decoded, gauged)
        assert text == reference_samples_jsonl(model, runs, decoded, gauged).encode()


def read_back(data, n):
    """samples_from_jsonl's batches of data, or the class and message of its input error."""
    try:
        return samples_from_jsonl(data, n)
    except (KeyError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def read_back_as_json(data, n):
    """read_back with the writer-layout scanner off: every line decoded as JSON."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplers, "_writer_columns", lambda data: None)
        return read_back(data, n)


def assert_reads_as_json(data, n):
    """data reads as the JSON path reads it: the same batches, or the same ValueError."""
    got, want = read_back(data, n), read_back_as_json(data, n)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for a, b in zip(got, want, strict=True):
            assert_same_batch(a, b)


def _toggle_gauge_tag(line):
    # untagged lines and "gauge": 0 lines both belong to gauge 0
    if '"gauge"' in line:
        return re.sub(r', "gauge": [0-9]+', "", line)
    return line[:-1] + ', "gauge": 0}'


# One edit of one writer line each; the reader must treat the result as the JSON path does.
LINE_MUTATIONS = {
    "re-spaced": lambda line: line.replace(", ", " ,  ").replace(": ", ":"),
    "keys-reordered": lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    "boolean-spin": lambda line: re.sub(r'"spins": \[-?1', '"spins": [true', line),
    "boolean-time": lambda line: re.sub(r'"core_time_us": [0-9]+', '"core_time_us": true', line),
    "leading-zero-read": lambda line: line.replace('"read": ', '"read": 0'),
    "leading-zero-time": lambda line: line.replace('"wall_time_us": ', '"wall_time_us": 0'),
    "float-time": lambda line: re.sub(r'("core_time_us": [0-9]+)', r"\1.0", line),
    "time-past-int64": lambda line: re.sub(r'"wall_time_us": [0-9]+',
                                           f'"wall_time_us": {2**70}', line),
    "energy-past-int64": lambda line: re.sub(r'"energy": [^,]+', f'"energy": {2**70}', line),
    "negative-time": lambda line: line.replace('"core_time_us": ', '"core_time_us": -'),
    "read-out-of-order": lambda line: re.sub(
        r'"read": ([0-9]+)', lambda m: f'"read": {int(m[1]) + 1}', line),
    "spin-dropped": lambda line: re.sub(r'"spins": \[-?1(, )?', '"spins": [', line),
    "spin-added": lambda line: line.replace('"spins": [', '"spins": [1, '),
    "spins-unseparated": lambda line: re.sub(r'("spins": \[-?1), ', r"\1", line),
    "gauge-tag-toggled": _toggle_gauge_tag,
    "blank-line-after": lambda line: line + "\n",
    "crlf": lambda line: line + "\r",
}


@settings(max_examples=300, deadline=None)
@given(sample_files(), st.sampled_from([*sorted(LINE_MUTATIONS), "no-final-newline"]),
       st.integers(0, 2**16))
def test_mutated_sample_text_reads_as_the_json_path_reads_it(case, mutation, where):
    model, runs, decoded, gauged = case
    n = model.num_qubits
    lines = samples_to_jsonl(model, runs, decoded, gauged).decode().splitlines()
    if mutation == "no-final-newline":
        text = "\n".join(lines)
    else:
        i = where % len(lines)
        lines[i] = LINE_MUTATIONS[mutation](lines[i])
        text = "".join(line + "\n" for line in lines)
    assert_reads_as_json(text.encode(), n)


@settings(max_examples=15, deadline=None)
@given(sample_files())
def test_truncated_sample_text_reads_as_the_json_path_reads_it(case):
    model, runs, decoded, gauged = case
    text = samples_to_jsonl(model, runs, decoded, gauged)
    for end in range(len(text) + 1):
        assert_reads_as_json(text[:end], model.num_qubits)


# the writer's characters, some it never writes, and a non-ASCII one
EDIT_TEXT = st.text(alphabet='{}[]":, -+.0123456789eENaIlnu\n\r\t\u00e9', max_size=8)


@settings(max_examples=300, deadline=None)
@given(sample_files(), EDIT_TEXT, st.integers(0, 2**16), st.integers(0, 8))
def test_edited_sample_text_reads_as_the_json_path_reads_it(case, piece, where, cut):
    model, runs, decoded, gauged = case
    text = samples_to_jsonl(model, runs, decoded, gauged)
    start = where % (len(text) + 1)
    assert_reads_as_json(text[:start] + piece.encode() + text[start + cut:], model.num_qubits)


@settings(max_examples=200, deadline=None)
@given(st.text().map(str.encode) | st.binary(), st.integers(0, 3))
def test_arbitrary_text_reads_as_the_json_path_reads_it(data, n):
    assert_reads_as_json(data, n)


# Line ends and bytes that Path.read_text would have changed or refused
READ_TEXT_PIECES = st.sampled_from([b"\r", b"\r\n", b"\n\r", b"\xff", b"\xc3", b"\xc3\xa9",
                                    b"\xef\xbb\xbf", b"\xed\xa0\x80"])


@settings(max_examples=200, deadline=None)
@given(sample_files(), st.lists(st.tuples(READ_TEXT_PIECES, st.integers(0, 2**16)), max_size=3))
def test_file_bytes_read_as_their_read_text_reads(case, edits):
    # The reader takes a file's bytes; it reads them as the str that Path.read_text
    # (strict UTF-8, universal newlines) makes of them, or fails as read_text does.
    model, runs, decoded, gauged = case
    data = samples_to_jsonl(model, runs, decoded, gauged)
    for piece, where in edits:
        start = where % (len(data) + 1)
        data = data[:start] + piece + data[start:]
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        with pytest.raises(UnicodeDecodeError):
            samples_from_jsonl(data, model.num_qubits)
        return
    got, want = read_back(data, model.num_qubits), read_back(text.encode(), model.num_qubits)
    if isinstance(want, str):
        assert got == want
    else:
        for a, b in zip(got, want, strict=True):
            assert_same_batch(a, b)


def writer_line(energy="-1", core="20", wall="20", gauge=None):
    """One line of a two-qubit sample file, in samples_to_jsonl's layout, with these tokens."""
    tag = "" if gauge is None else f', "gauge": {gauge}'
    return (f'{{"read": 0, "spins": [1, -1], "energy": {energy}, "core_time_us": {core}, '
            f'"wall_time_us": {wall}, "solution": null{tag}}}\n').encode()


@pytest.mark.parametrize("tags", [("1",), ("0", "2"), ("-1", "0")])
def test_gauge_tags_not_zero_to_k_are_refused_alike_on_both_paths(tags):
    text = b"".join(writer_line(gauge=tag) for tag in tags)
    assert "gauge tags run" in read_back(text, 2)
    assert_reads_as_json(text, 2)


def test_integers_up_to_int64_max_are_scanned():
    top = 2**63 - 1
    text = writer_line(core=str(top), wall=str(top), gauge=str(top))
    columns = samplers._writer_columns(text)
    assert list(columns) == [top]
    assert columns[top]["core_time_us"].tolist() == columns[top]["wall_time_us"].tolist() == [top]
    assert_reads_as_json(text, 2)


@pytest.mark.parametrize("field", ["core", "wall", "gauge"])
def test_integer_past_int64_goes_to_the_json_decoder(field):
    text = writer_line(**{field: str(2**63)})
    assert samplers._writer_columns(text) is None
    assert_reads_as_json(text, 2)


@pytest.mark.parametrize("token, scanned", [
    ("999999999999999999", True), ("-0", True), ("-4.9", True), ("1.5E+300", True),
    ("2.5e-999", True),
    ("1000000000000000000", False), ("-1234567890123456789", False), ("NaN", False),
    ("-Infinity", False), ("1e999", False), ("1e308", False), ("01", False), ("1.", False),
    (".5", False), ("1e", False), ("+1", False), ("1e1000", False), ("true", False),
    ('"1"', False),
])
def test_energy_token_grammar(token, scanned):
    # 18 integer digits fit int64 whatever they are; below 10**308 a float is finite
    text = writer_line(energy=token)
    assert (samplers._writer_columns(text) is not None) == scanned
    assert_reads_as_json(text, 2)


@settings(max_examples=100, deadline=None)
@given(sample_files())
def test_writer_text_is_read_without_the_json_decoder(case):
    # a width check that misjudged the writer's rows would send every file down the JSON path
    model, runs, decoded, gauged = case
    text = samples_to_jsonl(model, runs, decoded, gauged)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplers, "_jsonl_objects", lambda text: calls.append(text) or iter(()))
        back = samples_from_jsonl(text, model.num_qubits)
    assert calls == []
    for a, b in zip(back, runs, strict=True):
        assert_same_batch(a, b)


def test_sample_reader_keeps_no_line_dicts():
    # 4 gauges x 5000 reads of 20 qubits.  The reader that gathered a list per field
    # (each line's dict dropped after its line) peaked at 12.54 MB under CPython
    # 3.11; one that keeps every line's dict peaks at 24.7 MB.
    rng = np.random.default_rng(0)
    k, n = 5000, 20
    # energies within [-39, 39], small ints as in the measurements above
    chain = IsingModel.from_terms(n, dict.fromkeys(range(n), 1),
                                  {(q, q + 1): 1 for q in range(n - 1)})
    t = np.arange(1, k + 1, dtype=np.int64)
    runs = [batch_of(2 * rng.integers(0, 2, size=(k, n)) - 1, 20 * t, 100 + 25 * t)
            for _ in range(4)]
    text = samples_to_jsonl(chain, runs, [[None] * k] * 4, gauged=True)
    samples_from_jsonl(text[:text.index(b"\n") + 1], n)  # caches and lazy imports
    tracemalloc.start()
    try:
        back = samples_from_jsonl(text, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for a, b in zip(back, runs, strict=True):
        assert_same_batch(a, b)
    assert peak < 12_540_000
