"""The benchmark's own CNF handling, written without cascor's code.

The output checks compare cascor's results against these functions, so they
must not import cascor: a clause is a tuple of signed DIMACS integers and an
assignment is a tuple of bools, variable v at index v - 1.
"""
from __future__ import annotations

import random

import numpy as np

Clauses = list[tuple[int, ...]]

_TABLE_BLOCK_BITS = 16  # truth tables are scanned 2^16 rows at a time


def parse_dimacs(text: str) -> tuple[int, Clauses]:
    """Variable count and clauses of DIMACS text (comments and header tolerated)."""
    num_vars = None
    clauses: Clauses = []
    pending: list[int] = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            num_vars = int(fields[2])
            continue
        for tok in fields:
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if num_vars is None or pending:
        raise ValueError("not a complete DIMACS CNF")
    return num_vars, clauses


def emit_dimacs(num_vars: int, clauses: Clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def satisfies(clauses: Clauses, assignment: tuple[bool, ...]) -> bool:
    return all(
        any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses
    )


def truth_table(num_vars: int, clauses: Clauses) -> set[tuple[bool, ...]]:
    """Every satisfying assignment, found by scanning all 2^n rows in blocks."""
    if num_vars > 24:
        raise ValueError(f"truth table over {num_vars} variables is too large")
    shifts = np.arange(num_vars, dtype=np.int64)
    block = 1 << min(num_vars, _TABLE_BLOCK_BITS)
    found: set[tuple[bool, ...]] = set()
    for start in range(0, 1 << num_vars, block):
        rows = np.arange(start, start + block, dtype=np.int64)
        bits = ((rows[:, None] >> shifts) & 1).astype(bool)
        ok = np.ones(block, dtype=bool)
        for clause in clauses:
            hit = np.zeros(block, dtype=bool)
            for lit in clause:
                hit |= bits[:, abs(lit) - 1] == (lit > 0)
            ok &= hit
        found.update(map(tuple, bits[ok].tolist()))
    return found


def used_vars(clauses: Clauses) -> list[int]:
    return sorted({abs(lit) for clause in clauses for lit in clause})


def qubit_count(clauses: Clauses) -> int:
    """Qubits of the cascading-OR compilation: one per used variable, k - 2 ancillas per clause."""
    return len(used_vars(clauses)) + sum(max(len(c) - 2, 0) for c in clauses)


def isomorph(num_vars: int, clauses: Clauses, rng: random.Random) -> Clauses:
    """Rename variables, flip polarities and reorder clauses and literals.

    The map on assignments is a bijection, so the solution count, the clause
    lengths and the compiled qubit count are unchanged.
    """
    rename = list(range(1, num_vars + 1))
    rng.shuffle(rename)
    flip = [rng.random() < 0.5 for _ in range(num_vars)]
    out = []
    for clause in clauses:
        lits = []
        for lit in clause:
            v = abs(lit) - 1
            positive = (lit > 0) != flip[v]
            lits.append(rename[v] if positive else -rename[v])
        rng.shuffle(lits)
        out.append(tuple(lits))
    rng.shuffle(out)
    return out


def clause_key(clauses) -> tuple:
    """Order-free identity of a clause list, for matching cascor's parse to the file."""
    return tuple(sorted(tuple(sorted(c)) for c in clauses))
