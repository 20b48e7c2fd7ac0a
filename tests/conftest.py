"""Shared test oracles, kept independent of the code paths they check.

brute_force_solutions evaluates clause semantics directly over all 2^n
assignments with numpy; slow_energy and slow_min_states walk states in pure
Python; slow_decode projects one read at a time and checks it with
sat.evaluate; slow_anneal is the read-major Metropolis loop that draws every
uniform of a read up front.  These are the reference implementations the
package is tested against.
"""
from __future__ import annotations

import numpy as np
import pytest

from cascor.ising import IsingModel
from cascor.sat import Cnf


def brute_force_solutions(cnf: Cnf) -> set[tuple[bool, ...]]:
    """Truth-table enumeration of satisfying assignments (independent oracle)."""
    n = cnf.num_vars
    count = 1 << n
    bits = ((np.arange(count)[:, None] >> np.arange(n)) & 1).astype(bool)
    satisfied = np.ones(count, dtype=bool)
    for clause in cnf.clauses:
        clause_sat = np.zeros(count, dtype=bool)
        for lit in clause.literals:
            clause_sat |= bits[:, lit.var - 1] != lit.negated
        satisfied &= clause_sat
    return {tuple(row) for row in bits[satisfied].tolist()}


def slow_energy(model: IsingModel, spins: tuple[int, ...]) -> float:
    total = 0
    for q, v in model.h.items():
        total += v * spins[q]
    for (i, j), v in model.J.items():
        total += v * spins[i] * spins[j]
    return total


def slow_decode(spin_rows, layout, cnf: Cnf) -> list[tuple[bool, ...] | None]:
    """Per-read variable projection, kept where the CNF evaluates true."""
    from cascor.sat import evaluate

    decoded = []
    for spins in spin_rows:
        bits = [False] * cnf.num_vars
        for var, q in layout.var_to_qubit.items():
            bits[var - 1] = spins[q] > 0
        decoded.append(tuple(bits) if evaluate(cnf, tuple(bits)) else None)
    return decoded


def slow_anneal(model: IsingModel, cfg, read_indices=None) -> np.ndarray:
    """Final spins of the given reads (default: all), (C, N) int8."""
    from cascor.sat import _derived_rng

    if read_indices is None:
        read_indices = range(cfg.num_reads)
    n = model.num_qubits
    count = len(read_indices)
    coupling = np.zeros((n, n))
    for (i, j), v in model.J.items():
        coupling[i, j] = coupling[j, i] = v
    h_f = model.arrays.h.astype(np.float64)

    # Each read's stream: n init draws, then one uniform per proposal.
    states = np.empty((count, n), dtype=np.float64)
    uniforms = np.empty((count, cfg.sweeps, n), dtype=np.float64)
    for row, r in enumerate(read_indices):
        rng = _derived_rng(cfg.seed, r)
        states[row] = 2.0 * rng.integers(0, 2, size=n) - 1.0
        uniforms[row] = rng.random((cfg.sweeps, n))

    betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.sweeps)
    for s in range(cfg.sweeps):
        beta = betas[s]
        for i in range(n):
            # flipping spin i changes the energy by -2 s_i (h_i + sum_j J_ij s_j)
            local = states @ coupling[i] + h_f[i]
            delta = -2.0 * states[:, i] * local
            accept = (delta <= 0) | (
                uniforms[:, s, i] < np.exp(np.minimum(-beta * delta, 0.0))
            )
            states[accept, i] *= -1.0
    return states.astype(np.int8)


def batch_of(spins, core_time_us, wall_time_us, energies=None):
    """A SampleBatch of the given rows, built from arrays; energies default to 0."""
    from cascor.samplers import SampleBatch

    spins = np.array(spins, dtype=np.int8)
    energies = np.zeros(len(spins), dtype=np.int64) if energies is None else np.array(energies)
    return SampleBatch(spins, energies, np.array(core_time_us, dtype=np.int64),
                       np.array(wall_time_us, dtype=np.int64))


def assert_same_batch(a, b) -> None:
    """Two SampleBatches hold equal arrays of equal dtypes."""
    for name in ("spins", "energies", "core_time_us", "wall_time_us"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def all_states(n: int):
    for mask in range(1 << n):
        yield tuple(1 if (mask >> q) & 1 else -1 for q in range(n))


def slow_min_states(model: IsingModel) -> tuple[float, set[tuple[int, ...]]]:
    """Pure-Python exhaustive minimum, for checking the vectorized oracle."""
    best = None
    states: set[tuple[int, ...]] = set()
    for spins in all_states(model.num_qubits):
        e = slow_energy(model, spins)
        if best is None or e < best:
            best, states = e, {spins}
        elif e == best:
            states.add(spins)
    return best, states


def spectrum(model: IsingModel) -> dict[tuple[int, ...], float]:
    return {s: slow_energy(model, s) for s in all_states(model.num_qubits)}


def random_small_cnf(rng: np.random.Generator, n: int, m: int, max_k: int = 4) -> Cnf:
    from cascor.sat import Clause, Literal

    clauses = []
    for _ in range(m):
        k = int(rng.integers(1, min(max_k, n) + 1))
        variables = rng.choice(n, size=k, replace=False) + 1
        clauses.append(
            Clause(
                tuple(
                    Literal(int(v), bool(rng.integers(2))) for v in variables
                )
            )
        )
    return Cnf(n, tuple(clauses))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def private_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory; the kernel loaded from it is forgotten afterwards."""
    from cascor import samplers

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    samplers._kernel.cache_clear()
    yield tmp_path / "cascor"
    samplers._kernel.cache_clear()
