"""Shared test oracles, kept independent of the code paths they check.

brute_force_solutions evaluates clause semantics directly over all 2^n
assignments with numpy; slow_energy and slow_min_states walk states in pure
Python; slow_decode projects one read at a time and checks it with
sat.evaluate; slow_anneal is the read-major Metropolis loop that draws every
uniform of a read up front; slow_enumerate is the blocking-clause ALL-SAT
search on mutable counters with undo and a numpy block array.  These are the
reference implementations the package is tested against.
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


class _SlowEnumerator:
    """Persistent DPLL state reused across solve calls; undo restores it fully.

    Blocks (previously found models) live in one int-mask array.  The subset
    consistent with the partial assignment is materialized only once the
    number of unassigned variables drops to the boundary, then filtered
    incrementally below it; above the boundary pure-literal elimination is
    skipped whenever blocks exist, which is sound since the rule is optional.
    """

    _ACTIVE_BOUNDARY = 16

    def __init__(self, cnf: Cnf, dead_limit: int):
        self.n = cnf.num_vars
        self.clauses: list[list[int]] = [
            [lit.to_dimacs() for lit in clause.literals] for clause in cnf.clauses
        ]
        self.occ: list[list[int]] = [[] for _ in range(2 * self.n)]
        for ci, lits in enumerate(self.clauses):
            for lit in lits:
                self.occ[self._lidx(lit)].append(ci)
        self.assign = [0] * self.n  # 0 unassigned, +1 true, -1 false
        self.assigned_count = 0
        self.assigned_mask = 0
        self.value_mask = 0
        self.free_count = [len(lits) for lits in self.clauses]
        self.sat_count = [0] * len(self.clauses)
        self.lit_active = [len(self.occ[i]) for i in range(2 * self.n)]
        self.nodes = 0
        self.dead_hits = 0
        self.dead_limit = dead_limit
        self.dead: set[tuple[int, int]] = set()

    @staticmethod
    def _lidx(lit: int) -> int:
        return 2 * (lit - 1) if lit > 0 else 2 * (-lit - 1) + 1

    def _assign_lit(self, lit: int, applied: list[int], units: list[int]) -> bool:
        v = abs(lit) - 1
        val = 1 if lit > 0 else -1
        cur = self.assign[v]
        if cur != 0:
            return cur == val
        self.assign[v] = val
        self.assigned_count += 1
        self.assigned_mask |= 1 << v
        if val > 0:
            self.value_mask |= 1 << v
        applied.append(lit)

        clauses, occ = self.clauses, self.occ
        sat_count, free_count, lit_active = self.sat_count, self.free_count, self.lit_active
        for ci in occ[2 * lit - 2 if lit > 0 else -2 * lit - 1]:
            free_count[ci] -= 1
            sat_count[ci] += 1
            if sat_count[ci] == 1:
                for l in clauses[ci]:
                    lit_active[2 * l - 2 if l > 0 else -2 * l - 1] -= 1
        ok = True
        assign = self.assign
        for ci in occ[2 * lit - 1 if lit > 0 else -2 * lit - 2]:
            free_count[ci] -= 1
            if sat_count[ci] == 0:
                fc = free_count[ci]
                if fc == 0:
                    ok = False
                elif fc == 1:
                    for l in clauses[ci]:
                        if assign[abs(l) - 1] == 0:
                            units.append(l)
                            break
        return ok

    def _undo(self, applied: list[int]) -> None:
        clauses, occ = self.clauses, self.occ
        sat_count, free_count, lit_active = self.sat_count, self.free_count, self.lit_active
        for lit in reversed(applied):
            v = abs(lit) - 1
            for ci in occ[2 * lit - 2 if lit > 0 else -2 * lit - 1]:
                free_count[ci] += 1
                sat_count[ci] -= 1
                if sat_count[ci] == 0:
                    for l in clauses[ci]:
                        lit_active[2 * l - 2 if l > 0 else -2 * l - 1] += 1
            for ci in occ[2 * lit - 1 if lit > 0 else -2 * lit - 2]:
                free_count[ci] += 1
            self.assign[v] = 0
            self.assigned_count -= 1
            self.assigned_mask &= ~(1 << v)
            self.value_mask &= ~(1 << v)

    @staticmethod
    def _filter_blocks(active: np.ndarray, lit: int) -> np.ndarray:
        if not active.size:
            return active
        v = abs(lit) - 1
        want = 1 if lit > 0 else 0
        return active[((active >> v) & 1) == want]

    def _materialize(self, blocks: np.ndarray) -> np.ndarray:
        return blocks[(blocks & self.assigned_mask) == self.value_mask]

    def _pure_literal(self, active: np.ndarray | None) -> int | None:
        if active is None:
            return None  # blocks exist but are not materialized yet; skip the rule
        lit_active, assign = self.lit_active, self.assign
        ones_mask = None  # lazily reduced: bits set to 1 / 0 in some active block
        zeros_mask = None
        for v in range(self.n):
            if assign[v] != 0:
                continue
            pa = lit_active[2 * v]
            na = lit_active[2 * v + 1]
            if pa > 0 and na == 0:
                # sound only if no consistent block constrains var v to true
                if not active.size:
                    return v + 1
                if ones_mask is None:
                    ones_mask = int(np.bitwise_or.reduce(active))
                if not (ones_mask >> v) & 1:
                    return v + 1
            elif na > 0 and pa == 0:
                if not active.size:
                    return -(v + 1)
                if zeros_mask is None:
                    zeros_mask = int(np.bitwise_or.reduce(~active))
                if not (zeros_mask >> v) & 1:
                    return -(v + 1)
        return None

    def _pick_branch(self) -> int:
        lit_active, assign = self.lit_active, self.assign
        best_v, best_score = -1, -1
        for v in range(self.n):
            if assign[v] != 0:
                continue
            score = lit_active[2 * v] + lit_active[2 * v + 1]
            if score > best_score:
                best_v, best_score = v, score
        lit = best_v + 1
        return lit if lit_active[2 * best_v] >= lit_active[2 * best_v + 1] else -lit

    def _search(
        self, blocks: np.ndarray, active: np.ndarray | None, pending: list[int]
    ) -> int | None:
        self.nodes += 1
        applied: list[int] = []
        units = list(pending)
        ok = True
        i = 0
        while ok:
            if i < len(units):
                lit = units[i]
                i += 1
                before = self.assign[abs(lit) - 1]
                ok = self._assign_lit(lit, applied, units)
                if ok and before == 0 and active is not None:
                    active = self._filter_blocks(active, lit)
                continue
            if active is None and self.n - self.assigned_count <= self._ACTIVE_BOUNDARY:
                active = self._materialize(blocks)
            pure = self._pure_literal(active)
            if pure is None:
                break
            units.append(pure)

        if ok and active is not None and active.size:
            unassigned = self.n - self.assigned_count
            if active.size == (1 << unassigned):
                ok = False  # every completion below here is already blocked
        if ok and self.assigned_count == self.n:
            if active is None:
                active = self._materialize(blocks)
            if active.size:
                if len(self.dead) < self.dead_limit:
                    self.dead.add((self.assigned_mask, self.value_mask))
                self._undo(applied)
                return None
            model = self.value_mask
            self._undo(applied)
            return model
        if not ok:
            self._undo(applied)
            return None

        key = (self.assigned_mask, self.value_mask)
        if key in self.dead:
            self.dead_hits += 1
            self._undo(applied)
            return None
        first = self._pick_branch()
        for lit in (first, -first):
            model = self._search(blocks, active, [lit])
            if model is not None:
                self._undo(applied)
                return model
        if len(self.dead) < self.dead_limit:
            self.dead.add(key)
        self._undo(applied)
        return None

    def solve(self, blocks: np.ndarray) -> int | None:
        """Find one model consistent with no block, or None if exhausted."""
        active = blocks if not blocks.size else None
        if active is None and self.n <= self._ACTIVE_BOUNDARY:
            active = blocks
        return self._search(blocks, active, [])


def slow_enumerate(cnf: Cnf, cap: int, dead_limit: int = 2_000_000) -> dict:
    """Untimed blocking-clause ALL-SAT: assignments in discovery order, outcome and counters."""
    solver = _SlowEnumerator(cnf, dead_limit)
    blocked: list[int] = []
    models: list[int] = []
    complete = cap_hit = False
    solve_calls = 0
    while True:
        solve_calls += 1
        model = solver.solve(np.array(blocked, dtype=np.int64))
        if model is None:
            complete = True
            break
        if len(models) == cap:
            cap_hit = True
            break
        models.append(model)
        blocked.append(model)
    n = cnf.num_vars
    return {
        "assignments": [tuple(bool(m >> v & 1) for v in range(n)) for m in models],
        "complete": complete,
        "cap_hit": cap_hit,
        "nodes": solver.nodes,
        "solve_calls": solve_calls,
        "dead_size": len(solver.dead),
        "dead_hits": solver.dead_hits,
    }


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
