"""Compile CNF clauses into Ising penalty Hamiltonians via cascading ORs.

A 2-literal clause is penalized directly (ground energy -1).  Longer clauses
are built from OR-with-output blocks whose ancilla carries the disjunction of
a subtree of literals; each block contributes -3 to the clause ground energy,
so a k-literal clause spans 2(k-1) qubits at ground energy -1 - 3(k-2).
Negated literals flip the sign of every coefficient touching their qubit;
ancillas are never negated.

Summing clause penalties (variable qubits shared, ancillas fresh) yields a
model whose minimum equals the summed clause ground energies exactly when the
CNF is satisfiable, with ground states projecting onto the satisfying
assignments.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .ising import IsingModel
from .sat import Clause, Cnf, _derived_seed

__all__ = [
    "TermSet",
    "ClausePenalty",
    "ConstructionPolicy",
    "PenaltyLayout",
    "QubitAllocator",
    "AllocationError",
    "build_h2",
    "build_h_or",
    "build_clause_penalty",
    "compile_cnf",
    "compiled_to_json",
    "compiled_from_json",
]


class AllocationError(RuntimeError):
    """Raised when a qubit allocator runs out of capacity."""


@dataclass
class TermSet:
    """Accumulator for linear and pairwise spin coefficients.

    Coefficients add when terms repeat (shared qubits collect contributions
    from every block touching them); entries that cancel to zero are dropped.
    """

    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)

    def add_linear(self, q: int, coeff: float) -> None:
        new = self.linear.get(q, 0) + coeff
        if new == 0:
            self.linear.pop(q, None)
        else:
            self.linear[q] = new

    def add_quadratic(self, i: int, j: int, coeff: float) -> None:
        if i == j:
            raise ValueError(f"self-pair on qubit {i}")
        key = (i, j) if i < j else (j, i)
        new = self.quadratic.get(key, 0) + coeff
        if new == 0:
            self.quadratic.pop(key, None)
        else:
            self.quadratic[key] = new

    def merge(self, other: "TermSet") -> None:
        for q, v in other.linear.items():
            self.add_linear(q, v)
        for (i, j), v in other.quadratic.items():
            self.add_quadratic(i, j, v)

    def qubits(self) -> set[int]:
        qs = set(self.linear)
        for i, j in self.quadratic:
            qs.add(i)
            qs.add(j)
        return qs


@dataclass(frozen=True)
class ConstructionPolicy:
    """Which equivalent cascading-OR shape to build for clauses of length >= 3.

    chain substitutes into the most recently produced slot (a linear cascade),
    balanced builds a minimum-depth OR tree, and seeded_random grows the tree
    by substituting a uniformly chosen literal slot at each step.
    """

    kind: str
    seed: int | None = None

    _KINDS = ("chain", "balanced", "seeded_random")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if (self.kind == "seeded_random") != (self.seed is not None):
            raise ValueError("seed must be present iff kind is seeded_random")

    @classmethod
    def chain(cls) -> "ConstructionPolicy":
        return cls("chain")

    @classmethod
    def balanced(cls) -> "ConstructionPolicy":
        return cls("balanced")

    @classmethod
    def seeded_random(cls, seed: int) -> "ConstructionPolicy":
        return cls("seeded_random", seed)

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "ConstructionPolicy":
        return cls(doc["kind"], doc.get("seed"))


@dataclass(frozen=True)
class ClausePenalty:
    """Penalty terms for one clause plus its qubit bookkeeping."""

    terms: TermSet
    variable_qubits: dict[int, int]  # literal position -> qubit
    ancilla_qubits: tuple[int, ...]
    ground_energy: float


@dataclass(frozen=True)
class PenaltyLayout:
    """Variable/ancilla bookkeeping for a compiled CNF."""

    var_to_qubit: dict[int, int]
    clause_ancillas: tuple[tuple[int, ...], ...]
    clause_ground_energies: tuple[float, ...]
    ground_bound: float
    num_qubits: int


class QubitAllocator:
    """Hands out fresh qubit indices, optionally bounded by a capacity."""

    def __init__(self, start: int = 0, capacity: int | None = None):
        self._next = start
        self._capacity = capacity

    def allocate(self) -> int:
        if self._capacity is not None and self._next >= self._capacity:
            raise AllocationError(f"allocator exhausted at {self._capacity} qubits")
        q = self._next
        self._next += 1
        return q


def _sign(negated: bool) -> int:
    return -1 if negated else 1


def build_h2(q1: int, q2: int, neg1: bool = False, neg2: bool = False) -> TermSet:
    """Penalty whose ground space is the three states satisfying l1 OR l2.

    For positive literals: h = (-1, -1), J12 = +1; satisfied states sit at -1
    and the doubly-false state at +3.  A negated literal flips the sign of
    every coefficient involving its qubit.
    """
    if q1 == q2:
        raise ValueError("h2 requires distinct qubits")
    f1, f2 = _sign(neg1), _sign(neg2)
    terms = TermSet()
    terms.add_linear(q1, -f1)
    terms.add_linear(q2, -f2)
    terms.add_quadratic(q1, q2, f1 * f2)
    return terms


def build_h_or(
    q1: int, q2: int, qz: int, neg1: bool = False, neg2: bool = False
) -> TermSet:
    """OR-with-output penalty: ground space is the four states with z = l1 OR l2.

    Ground energy -3; the nearest violation ((F, F) inputs with z true) sits
    at +1 and the worst ((T, T) inputs with z false) at +9.  The output qubit
    is never negated.
    """
    if len({q1, q2, qz}) != 3:
        raise ValueError("h_or requires three distinct qubits")
    f1, f2 = _sign(neg1), _sign(neg2)
    terms = TermSet()
    terms.add_linear(q1, f1)
    terms.add_linear(q2, f2)
    terms.add_linear(qz, -2)
    terms.add_quadratic(q1, q2, f1 * f2)
    terms.add_quadratic(q1, qz, -2 * f1)
    terms.add_quadratic(q2, qz, -2 * f2)
    return terms


def clause_ground_energy(k: int) -> int:
    """Ground energy of a k-literal clause penalty: -1 for k <= 2, else -1 - 3(k-2)."""
    if k < 1:
        raise ValueError("clause length must be >= 1")
    return -1 if k <= 2 else -1 - 3 * (k - 2)


# Tree nodes are mutable lists: ["leaf", literal_position] or ["or", left, right].


def _chain_tree(k: int) -> tuple[list, list]:
    acc: list = ["leaf", 0]
    for pos in range(1, k - 1):
        acc = ["or", acc, ["leaf", pos]]
    return acc, ["leaf", k - 1]


def _balanced_tree(positions: Sequence[int]) -> list:
    if len(positions) == 1:
        return ["leaf", positions[0]]
    mid = (len(positions) + 1) // 2
    return ["or", _balanced_tree(positions[:mid]), _balanced_tree(positions[mid:])]


def _random_tree(k: int, seed: int) -> tuple[list, list]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    left: list = ["leaf", 0]
    right: list = ["leaf", 1]
    leaves = [left, right]
    for pos in range(2, k):
        pick = int(rng.integers(len(leaves)))
        target = leaves[pick]
        old_pos = target[1]
        new_left: list = ["leaf", old_pos]
        new_right: list = ["leaf", pos]
        target.clear()
        target.extend(["or", new_left, new_right])
        leaves[pick : pick + 1] = [new_left, new_right]
    return left, right


def _root_slots(k: int, policy: ConstructionPolicy) -> tuple[list, list]:
    if policy.kind == "chain":
        return _chain_tree(k)
    if policy.kind == "balanced":
        mid = (k + 1) // 2
        positions = list(range(k))
        return _balanced_tree(positions[:mid]), _balanced_tree(positions[mid:])
    return _random_tree(k, policy.seed)


def build_clause_penalty(
    clause: Clause,
    alloc: QubitAllocator,
    var_map: Mapping[int, int],
    policy: ConstructionPolicy,
) -> ClausePenalty:
    """Build the penalty for one clause, drawing ancillas from ``alloc``.

    Length-1 clauses reduce to a single field; length 2 to the direct pair
    penalty; longer clauses cascade OR blocks whose shape is set by the
    policy, with shared-qubit coefficients collected additively (the first
    ancilla of a 3-literal chain collects -2 from its OR block and -1 from
    the pair penalty, i.e. -3).
    """
    for lit in clause.literals:
        if lit.var not in var_map:
            raise KeyError(f"variable {lit.var} missing from var_map")

    k = len(clause)
    lits = clause.literals
    variable_qubits = {pos: var_map[lit.var] for pos, lit in enumerate(lits)}

    terms = TermSet()
    if k == 1:
        terms.add_linear(var_map[lits[0].var], _sign(lits[0].negated) * -1)
        return ClausePenalty(terms, variable_qubits, (), clause_ground_energy(1))
    if k == 2:
        terms = build_h2(
            var_map[lits[0].var],
            var_map[lits[1].var],
            lits[0].negated,
            lits[1].negated,
        )
        return ClausePenalty(terms, variable_qubits, (), clause_ground_energy(2))

    ancillas: list[int] = []

    def emit(node: list) -> tuple[int, bool]:
        if node[0] == "leaf":
            lit = lits[node[1]]
            return var_map[lit.var], lit.negated
        _, left, right = node
        lq, ln = emit(left)
        rq, rn = emit(right)
        z = alloc.allocate()
        ancillas.append(z)
        terms.merge(build_h_or(lq, rq, z, ln, rn))
        return z, False

    slot_a, slot_b = _root_slots(k, policy)
    aq, an = emit(slot_a)
    bq, bn = emit(slot_b)
    terms.merge(build_h2(aq, bq, an, bn))
    return ClausePenalty(terms, variable_qubits, tuple(ancillas), clause_ground_energy(k))


def compile_cnf(
    cnf: Cnf, policy: ConstructionPolicy | None = None
) -> tuple[IsingModel, PenaltyLayout]:
    """Compile a CNF into one Ising model plus its layout bookkeeping.

    Variable qubits are shared across clauses (indexed 0..V-1 in ascending
    variable order); each clause draws fresh ancillas after them.  Model
    coefficients are the sums of all clause term sets, and the layout's
    ground bound is attained exactly when the CNF is satisfiable.
    """
    if policy is None:
        policy = ConstructionPolicy.chain()
    if not cnf.clauses:
        raise ValueError("cannot compile a CNF with no clauses")

    variables = cnf.variables_used()
    var_to_qubit = {v: i for i, v in enumerate(variables)}
    num_qubits = len(variables) + sum(max(len(c) - 2, 0) for c in cnf.clauses)
    alloc = QubitAllocator(start=len(variables), capacity=num_qubits)

    total = TermSet()
    clause_ancillas: list[tuple[int, ...]] = []
    clause_grounds: list[float] = []
    for idx, clause in enumerate(cnf.clauses):
        clause_policy = policy
        if policy.kind == "seeded_random":
            clause_policy = replace(policy, seed=_derived_seed(policy.seed, idx))
        penalty = build_clause_penalty(clause, alloc, var_to_qubit, clause_policy)
        total.merge(penalty.terms)
        clause_ancillas.append(penalty.ancilla_qubits)
        clause_grounds.append(penalty.ground_energy)

    model = IsingModel.from_terms(num_qubits, total.linear, total.quadratic)
    layout = PenaltyLayout(
        var_to_qubit=var_to_qubit,
        clause_ancillas=tuple(clause_ancillas),
        clause_ground_energies=tuple(clause_grounds),
        ground_bound=sum(clause_grounds),
        num_qubits=num_qubits,
    )
    return model, layout


def compiled_to_json(
    model: IsingModel, layout: PenaltyLayout, policy: ConstructionPolicy
) -> dict:
    """Serialize a compiled model + layout to the interchange document."""
    h_dense = [0] * model.num_qubits
    for q, v in model.h.items():
        h_dense[q] = v
    couplings = [[i, j, v] for (i, j), v in sorted(model.J.items())]
    return {
        "num_qubits": model.num_qubits,
        "h": h_dense,
        "J": couplings,
        "ground_bound": layout.ground_bound,
        "var_to_qubit": {str(v): q for v, q in layout.var_to_qubit.items()},
        "clause_ancillas": [list(a) for a in layout.clause_ancillas],
        "clause_ground_energies": list(layout.clause_ground_energies),
        "policy": policy.to_json(),
    }


def compiled_from_json(doc: Mapping) -> tuple[IsingModel, PenaltyLayout, ConstructionPolicy]:
    """Inverse of compiled_to_json."""
    h = {q: v for q, v in enumerate(doc["h"]) if v != 0}
    J = {(int(i), int(j)): v for i, j, v in doc["J"]}
    model = IsingModel.from_terms(int(doc["num_qubits"]), h, J)
    layout = PenaltyLayout(
        var_to_qubit={int(v): int(q) for v, q in doc["var_to_qubit"].items()},
        clause_ancillas=tuple(tuple(int(q) for q in a) for a in doc["clause_ancillas"]),
        clause_ground_energies=tuple(doc["clause_ground_energies"]),
        ground_bound=doc["ground_bound"],
        num_qubits=int(doc["num_qubits"]),
    )
    return model, layout, ConstructionPolicy.from_json(doc["policy"])
