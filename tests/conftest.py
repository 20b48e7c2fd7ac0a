"""Shared test oracles, kept independent of the code paths they check.

brute_force_solutions evaluates clause semantics directly over all 2^n
assignments with numpy; slow_energy and slow_min_states walk states in pure
Python, and assert_file_energies checks a sample file's energies with
slow_energy; slow_decode projects one read at a time and checks it with
sat.evaluate; wide_cnfs and near_solutions draw CNFs whose packed rows cross
word boundaries and assignments that often satisfy them; ungauge_sample maps
a gauged sample back spin by spin; min_energy_over_ancillas brute-forces
each clause's ancilla block with the variable qubits clamped;
slow_draw_instance draws a mixed-SAT instance through numpy's Generator;
slow_anneal is the read-major Metropolis loop that draws every uniform of a
read up front; slow_enumerate is the blocking-clause ALL-SAT search on
mutable counters with undo and a numpy block array.  These are the reference
implementations the package is tested against.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from cascor.compiler import PenaltyLayout
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


def ungauge_sample(spins: tuple[int, ...], gauge: tuple[int, ...]) -> tuple[int, ...]:
    """Map a sample of the gauged model back to the original frame (self-inverse)."""
    if len(spins) != len(gauge):
        raise ValueError(f"spin length {len(spins)} != gauge length {len(gauge)}")
    return tuple(s * g for s, g in zip(spins, gauge))


def min_energy_over_ancillas(
    model: IsingModel, layout: PenaltyLayout, assignment: tuple[bool, ...]
) -> float:
    """Minimum model energy with variable qubits clamped to an assignment.

    Ancillas of different clauses never share a coupling, so each clause's
    ancilla block is minimized independently; the result equals
    layout.ground_bound exactly when the assignment satisfies the source CNF.
    """
    for var in layout.var_to_qubit:
        if var - 1 >= len(assignment):
            raise ValueError(f"assignment does not cover mapped variable {var}")

    spin_of: dict[int, int] = {
        q: (1 if assignment[var - 1] else -1) for var, q in layout.var_to_qubit.items()
    }
    clause_of_ancilla: dict[int, int] = {}
    for c, ancillas in enumerate(layout.clause_ancillas):
        for q in ancillas:
            clause_of_ancilla[q] = c

    # Split the Hamiltonian into a clamped part and per-clause ancilla blocks.
    fixed = 0.0
    lin: dict[int, dict[int, float]] = {}  # clause -> ancilla -> coefficient
    quad: dict[int, dict[tuple[int, int], float]] = {}
    for q, v in model.h.items():
        if q in spin_of:
            fixed += v * spin_of[q]
        else:
            c = clause_of_ancilla[q]
            lin.setdefault(c, {})[q] = lin.get(c, {}).get(q, 0) + v
    for (i, j), v in model.J.items():
        i_anc, j_anc = i in clause_of_ancilla, j in clause_of_ancilla
        if not i_anc and not j_anc:
            fixed += v * spin_of[i] * spin_of[j]
        elif i_anc and j_anc:
            ci, cj = clause_of_ancilla[i], clause_of_ancilla[j]
            if ci != cj:
                raise ValueError(f"coupling ({i}, {j}) spans clauses {ci} and {cj}")
            quad.setdefault(ci, {})[(i, j)] = v
        else:
            anc, other = (i, j) if i_anc else (j, i)
            c = clause_of_ancilla[anc]
            lin.setdefault(c, {})
            lin[c][anc] = lin[c].get(anc, 0) + v * spin_of[other]

    total = fixed
    for c, ancillas in enumerate(layout.clause_ancillas):
        if not ancillas:
            continue
        c_lin = lin.get(c, {})
        c_quad = quad.get(c, {})
        best = None
        for mask in range(1 << len(ancillas)):
            s = {q: (1 if (mask >> p) & 1 else -1) for p, q in enumerate(ancillas)}
            e = sum(v * s[q] for q, v in c_lin.items())
            e += sum(v * s[i] * s[j] for (i, j), v in c_quad.items())
            if best is None or e < best:
                best = e
        total += best
    return total


def slow_draw_instance(spec, attempt: int) -> Cnf:
    """Draw number attempt of a MixedSatSpec through numpy's Generator.choice and random."""
    from cascor.sat import Clause, Literal, _derived_rng

    rng = _derived_rng(spec.seed, attempt)
    lengths = sorted(k for k, w in spec.length_weights.items() if w > 0)
    weights = np.array([spec.length_weights[k] for k in lengths], dtype=float)
    weights /= weights.sum()
    clauses = []
    for _ in range(spec.num_clauses):
        k = int(rng.choice(lengths, p=weights))
        variables = rng.choice(spec.num_vars, size=k, replace=False) + 1
        negations = rng.random(k) < 0.5
        clauses.append(
            Clause(tuple(Literal(int(v), bool(neg)) for v, neg in zip(variables, negations)))
        )
    return Cnf(spec.num_vars, tuple(clauses))


def slow_anneal(model: IsingModel, cfg, read_indices=None, gauge=None) -> np.ndarray:
    """Final spins of the given reads (default: all), (C, N) int8.

    With a gauge, each read starts from its drawn spins times the gauge.
    """
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
        if gauge is not None:
            states[row] *= gauge
        uniforms[row] = rng.random((cfg.sweeps, n))

    betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.sweeps)
    for s in range(cfg.sweeps):
        beta = betas[s]
        for i in range(n):
            # flipping spin i changes the energy by -2 s_i (h_i + sum_j J_ij s_j)
            local = states @ coupling[i] + h_f[i]
            delta = -2.0 * states[:, i] * local
            # a product past float64's range is -inf, whose exp is the probability 0
            with np.errstate(over="ignore"):
                exponent = -beta * delta
            accept = (delta <= 0) | (uniforms[:, s, i] < np.exp(np.minimum(exponent, 0.0)))
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


def batch_of(spins, core_time_us, wall_time_us):
    """A SampleBatch of the given rows, built from arrays."""
    from cascor.samplers import SampleBatch

    return SampleBatch(np.array(spins, dtype=np.int8), np.array(core_time_us, dtype=np.int64),
                       np.array(wall_time_us, dtype=np.int64))


def assert_same_batch(a, b) -> None:
    """Two SampleBatches hold equal arrays of equal dtypes."""
    for name in ("spins", "core_time_us", "wall_time_us"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_file_energies(model: IsingModel, data: bytes) -> None:
    """Each line of a sample JSONL file holds slow_energy of its spins, int or float alike."""
    for line in data.splitlines():
        doc = json.loads(line)
        expected = slow_energy(model, tuple(doc["spins"]))
        assert type(doc["energy"]) is type(expected) and doc["energy"] == expected, line


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


@st.composite
def wide_cnfs(draw) -> Cnf:
    """A CNF over 1..130 variables, so packed rows span one to three words, whose 1..12
    clauses of 1..5 literals leave most variables unused."""
    n = draw(st.integers(1, 130))
    clauses = []
    for _ in range(draw(st.integers(1, 12))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(n, 5), unique=True))
        clauses.append([v if draw(st.booleans()) else -v for v in variables])
    return Cnf.of(n, clauses)


def near_solutions(cnf: Cnf, rng: np.random.Generator, count: int) -> np.ndarray:
    """count random assignments as (count, num_vars) bools; the first half then sets one
    literal of each clause it falsifies, in clause order, so many of them satisfy cnf."""
    bits = rng.integers(0, 2, (count, cnf.num_vars)).astype(bool)
    for row in bits[:count // 2]:
        for clause in cnf.clauses:
            if not any(row[lit.var - 1] != lit.negated for lit in clause.literals):
                lit = clause.literals[rng.integers(len(clause))]
                row[lit.var - 1] = not lit.negated
    return bits


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
