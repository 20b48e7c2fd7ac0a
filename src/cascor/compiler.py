"""Compile CNF clauses into Ising penalty Hamiltonians via cascading ORs.

A clause of k >= 2 literals is a cascade: OR-with-output blocks, whose
ancilla carries the disjunction of a subtree of literals, feed one pair
penalty at the root (ground energy -1).  Each block contributes -3 to the
clause ground energy, so a k-literal clause spans 2(k-1) qubits at ground
energy -1 - 3(k-2); a 2-literal clause is the root pair penalty alone.
Negated literals flip the sign of every coefficient touching their qubit;
ancillas are never negated.

Summing clause penalties (variable qubits shared, ancillas fresh) yields a
model whose minimum equals the summed clause ground energies exactly when the
CNF is satisfiable, with ground states projecting onto the satisfying
assignments.
"""
from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from .ising import IsingModel, TermSet
from .sat import Clause, Cnf, _derived_seed

__all__ = [
    "ClausePenalty",
    "ConstructionPolicy",
    "PenaltyLayout",
    "build_h2",
    "build_h_or",
    "build_clause_penalty",
    "compile_cnf",
    "compiled_to_json",
    "compiled_from_json",
]


@dataclass(frozen=True)
class ConstructionPolicy:
    """Which equivalent cascading-OR shape to build for clauses of length >= 3.

    chain substitutes into the most recently produced slot (a linear cascade),
    balanced builds a minimum-depth OR tree, and seeded_random grows the tree
    by substituting a uniformly chosen literal slot at each step.
    """

    kind: str
    seed: int | None = None

    KINDS = ("chain", "balanced", "seeded_random")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if (self.kind == "seeded_random") != (self.seed is not None):
            raise ValueError("seed must be present iff kind is seeded_random")
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):  # no bools
            raise ValueError(f"a seeded_random seed must be an int >= 0, not {self.seed!r}")

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


def _clause_tree(k: int, policy: ConstructionPolicy) -> tuple:
    """The root pair of a k-literal clause's cascade (k >= 2) in the policy's shape:
    an int is a literal position, a pair an OR block over its two subtrees."""
    if policy.kind == "chain":
        node = 0
        for pos in range(1, k):
            node = (node, pos)
        return node
    if policy.kind == "balanced":
        def halve(lo: int, hi: int):
            if hi - lo == 1:
                return lo
            mid = (lo + hi + 1) // 2
            return halve(lo, mid), halve(mid, hi)

        return halve(0, k)
    rng = np.random.default_rng(np.random.SeedSequence(policy.seed))
    leaves = [0, 1]  # leaf positions, left to right
    splits: list[list[int]] = [[] for _ in range(k)]  # positions split off each leaf
    for pos in range(2, k):
        pick = int(rng.integers(len(leaves)))
        splits[leaves[pick]].append(pos)
        leaves.insert(pick + 1, pos)

    # a split-off position is larger than its leaf, so each subtree grows before its use
    tree = list(range(k))
    for pos in reversed(range(k)):
        for other in reversed(splits[pos]):  # the latest split sits innermost
            tree[pos] = (tree[pos], tree[other])
    return tree[0], tree[1]


def build_clause_penalty(
    clause: Clause,
    ancillas: Iterator[int],
    var_map: Mapping[int, int],
    policy: ConstructionPolicy,
) -> ClausePenalty:
    """Build the penalty for one clause, drawing fresh ancilla qubits from ``ancillas``.

    Length-1 clauses reduce to a single field.  Longer clauses cascade OR
    blocks, in the shape the policy sets, under one root pair penalty; a
    2-literal clause is that pair penalty alone.  Shared-qubit coefficients
    are collected additively (the first ancilla of a 3-literal chain collects
    -2 from its OR block and -1 from the pair penalty, i.e. -3).
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

    drawn: list[int] = []
    done: list[tuple[int, bool]] = []  # (qubit, negated) of each finished subtree
    stack: list = list(reversed(_clause_tree(k, policy)))  # the left subtree first
    while stack:  # post-order without recursion, since a chain is k deep
        node = stack.pop()
        if node is None:  # both inputs of an OR block are done: draw its ancilla
            (lq, ln), (rq, rn) = done.pop(-2), done.pop()
            z = next(ancillas)
            drawn.append(z)
            terms.merge(build_h_or(lq, rq, z, ln, rn))
            done.append((z, False))
        elif isinstance(node, int):
            done.append((var_map[lits[node].var], lits[node].negated))
        else:
            stack += [None, node[1], node[0]]
    (aq, an), (bq, bn) = done
    terms.merge(build_h2(aq, bq, an, bn))
    return ClausePenalty(terms, variable_qubits, tuple(drawn), clause_ground_energy(k))


def compile_cnf(
    cnf: Cnf, policy: ConstructionPolicy = ConstructionPolicy("chain")
) -> tuple[IsingModel, PenaltyLayout]:
    """Compile a CNF into one Ising model plus its layout bookkeeping.

    Variable qubits are shared across clauses (indexed 0..V-1 in ascending
    variable order); each clause draws fresh ancillas after them.  Model
    coefficients are the sums of all clause term sets, and the layout's
    ground bound is attained exactly when the CNF is satisfiable.
    """
    if not cnf.clauses:
        raise ValueError("cannot compile a CNF with no clauses")

    variables = cnf.variables_used()
    var_to_qubit = {v: i for i, v in enumerate(variables)}
    num_qubits = len(variables) + sum(max(len(c) - 2, 0) for c in cnf.clauses)
    ancillas = itertools.count(len(variables))

    total = TermSet()
    clause_ancillas: list[tuple[int, ...]] = []
    clause_grounds: list[float] = []
    for idx, clause in enumerate(cnf.clauses):
        clause_policy = policy
        if policy.kind == "seeded_random":
            clause_policy = replace(policy, seed=_derived_seed(policy.seed, idx))
        penalty = build_clause_penalty(clause, ancillas, var_to_qubit, clause_policy)
        total.merge(penalty.terms)
        clause_ancillas.append(penalty.ancilla_qubits)
        clause_grounds.append(penalty.ground_energy)

    model = IsingModel(num_qubits, total.linear, total.quadratic)
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


def _coefficient(value):
    """A model coefficient read from JSON: a real number within float64's finite range."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"model coefficient {value!r} is not a finite float64 number")
    return value


def _qubit(value) -> int:
    """A qubit index or count read from JSON: an integer, not a float, string or boolean."""
    if type(value) is not int:
        raise ValueError(f"model qubit index or count {value!r} is not an integer")
    return value


def _field(doc: Mapping, name: str, kind: type, items: type | None = None):
    """doc[name]; ValueError naming it unless it is a kind whose items, if given, are items."""
    value = doc[name]
    if type(value) is not kind or (items and any(type(item) is not items for item in value)):
        raise ValueError(f"model field {name!r} has the wrong JSON shape: {value!r:.60}")
    return value


def _layout_and_values(doc: dict) -> tuple[str, list]:
    """A model document's layout as JSON text, and its rescalable values, ground_bound last."""
    layout = [doc["num_qubits"], doc["var_to_qubit"], doc["clause_ancillas"],
              [entry[:2] for entry in doc["J"]]]
    values = [*doc["h"], *(entry[2] for entry in doc["J"]),
              *_field(doc, "clause_ground_energies", list), doc["ground_bound"]]
    return json.dumps(layout, sort_keys=True), list(map(_coefficient, values))


def compiled_from_json(doc: Mapping) -> tuple[IsingModel, ConstructionPolicy]:
    """Model and policy of a compiled_to_json document; KeyError/ValueError if misshapen."""
    if type(doc) is not dict:
        raise ValueError(f"a compiled model is a JSON object, not {doc!r:.60}")
    num_qubits = _qubit(doc["num_qubits"])
    h_dense = _field(doc, "h", list)
    h = {q: v for q, v in enumerate(map(_coefficient, h_dense)) if v != 0}
    # h is written dense, so its length bounds num_qubits by the file's own size
    if len(h_dense) != num_qubits:
        raise ValueError(f"model qubit count {num_qubits} differs from h's length {len(h_dense)}")
    J = {(_qubit(i), _qubit(j)): _coefficient(v) for i, j, v in _field(doc, "J", list, list)}
    model = IsingModel.from_terms(num_qubits, h, J)
    return model, ConstructionPolicy.from_json(_field(doc, "policy", dict))
