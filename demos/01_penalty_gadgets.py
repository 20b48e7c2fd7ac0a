"""Tour of the clause penalty gadgets.

Builds the two primitive penalties (the 2-literal clause penalty and the
OR-with-output block), prints their full spectra, then cascades them into
penalties for longer clauses under each construction policy.

Run:  python3 demos/01_penalty_gadgets.py
"""
import itertools

from cascor import (
    ConstructionPolicy,
    IsingModel,
    build_clause_penalty,
    build_h2,
    build_h_or,
    energy,
)
from cascor.sat import Clause


def spins(bools):
    return tuple(1 if b else -1 for b in bools)


def label(bools):
    return "".join("T" if b else "F" for b in bools)


print("=" * 60)
print("2-literal clause penalty  (x1 v x2)")
print("=" * 60)
terms = build_h2(0, 1)
print(f"linear coefficients:    {terms.linear}")
print(f"quadratic coefficients: {terms.quadratic}")
model = IsingModel.from_terms(2, terms.linear, terms.quadratic)
for b in itertools.product([False, True], repeat=2):
    e = energy(model, spins(b))
    note = "penalized" if e > -1 else "ground"
    print(f"  x1 x2 = {label(b)}   energy {e:+d}   {note}")

print()
print("=" * 60)
print("OR-with-output block  (z <-> x1 v x2)")
print("=" * 60)
terms = build_h_or(0, 1, 2)
model = IsingModel.from_terms(3, terms.linear, terms.quadratic)
print("the four ground states are exactly the rows where z = x1 v x2:")
for b in itertools.product([False, True], repeat=3):
    e = energy(model, spins(b))
    mark = "  <-- ground" if e == -3 else ""
    print(f"  x1 x2 z = {label(b)}   energy {e:+d}{mark}")

print()
print("=" * 60)
print("cascading a 4-literal clause, one tree shape per policy")
print("=" * 60)
clause = Clause.of(1, 2, 3, 4)
var_map = {v: v - 1 for v in range(1, 5)}
for policy in (
    ConstructionPolicy("chain"),
    ConstructionPolicy("balanced"),
    ConstructionPolicy("seeded_random", 7),
):
    penalty = build_clause_penalty(clause, itertools.count(4), var_map, policy)
    print(f"policy {policy.kind:>14}: ancillas {penalty.ancilla_qubits}, "
          f"ground energy {penalty.ground_energy}")
    print(f"    linear: {dict(sorted(penalty.terms.linear.items()))}")
    print(f"    pairs:  {dict(sorted(penalty.terms.quadratic.items()))}")
print()
print("every policy spends 2(k-1) qubits and grounds at -1 - 3(k-2);")
print("only the excited spectrum differs between the tree shapes.")
