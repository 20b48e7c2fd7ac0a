"""Blocking-clause ALL-SAT enumeration with per-solution timestamps.

Repeatedly runs a DPLL solve (unit propagation, pure-literal elimination,
most-occurrences branching) and excludes each model found by blocking the
full assignment, until the search space is exhausted, a solution cap is
reached, or a time budget expires.

Blocking clauses mention every variable, so they are stored as integer
assignment masks and handled wholesale: the set of blocks consistent with the
current partial assignment is filtered as the search descends, a subtree is
abandoned when every one of its completions is blocked, and a pure literal is
only eliminated when no consistent block constrains it.  This is the same
pruning the clauses would provide, computed in bulk.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .sat import Assignment, Cnf

__all__ = [
    "SolutionEvent",
    "EnumerationResult",
    "enumerate_all",
    "check_enumeration",
    "count_solutions_capped",
    "event_to_json",
    "event_from_json",
]

_MASK_VAR_LIMIT = 62  # assignments are stored as int64 bit masks
_TIMEOUT_CHECK_NODES = 2048
_DEAD_SET_LIMIT = 2_000_000  # memoization is an optimization; stop growing past this


@dataclass(frozen=True)
class SolutionEvent:
    """One satisfying assignment with its discovery time and 1-based ordinal."""

    index: int
    wall_time_us: int
    assignment: Assignment


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of an enumeration run.

    ``complete`` means the search space was exhausted; ``cap_hit`` means a
    solution beyond the cap exists (the first ``cap`` are in ``events``).
    The two are mutually exclusive; both false means the time budget expired.
    """

    events: tuple[SolutionEvent, ...]
    complete: bool
    cap_hit: bool
    setup_time_us: int = 0

    def __post_init__(self) -> None:
        if self.complete and self.cap_hit:
            raise ValueError("complete and cap_hit are mutually exclusive")

    def assignments(self) -> list[Assignment]:
        return [e.assignment for e in self.events]


class _Timeout(Exception):
    pass


class _Enumerator:
    """Persistent DPLL state reused across solve calls; undo restores it fully.

    Blocks (previously found models) live in one int-mask array.  The subset
    consistent with the partial assignment is materialized only once the
    number of unassigned variables drops to the boundary, then filtered
    incrementally below it; above the boundary pure-literal elimination is
    skipped whenever blocks exist, which is sound since the rule is optional.
    """

    _ACTIVE_BOUNDARY = 16

    def __init__(self, cnf: Cnf):
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
        self.deadline_ns: int | None = None
        self._nodes = 0
        # Partial assignments proven to hold no unblocked model.  Blocks only
        # grow, so dead stays dead; later solves skip these subtrees outright.
        self.dead: set[tuple[int, int]] = set()

    @staticmethod
    def _lidx(lit: int) -> int:
        return 2 * (lit - 1) if lit > 0 else 2 * (-lit - 1) + 1

    # -- assignment bookkeeping ------------------------------------------------

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

    # -- block handling ----------------------------------------------------------

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

    # -- search ------------------------------------------------------------------

    def _search(
        self, blocks: np.ndarray, active: np.ndarray | None, pending: list[int]
    ) -> int | None:
        self._nodes += 1
        if self.deadline_ns is not None and self._nodes % _TIMEOUT_CHECK_NODES == 0:
            if time.monotonic_ns() > self.deadline_ns:
                raise _Timeout

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
                if len(self.dead) < _DEAD_SET_LIMIT:
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
            self._undo(applied)
            return None
        first = self._pick_branch()
        for lit in (first, -first):
            model = self._search(blocks, active, [lit])
            if model is not None:
                self._undo(applied)
                return model
        if len(self.dead) < _DEAD_SET_LIMIT:
            self.dead.add(key)
        self._undo(applied)
        return None

    def solve(self, blocks: np.ndarray) -> int | None:
        """Find one model consistent with no block, or None if exhausted."""
        active = blocks if not blocks.size else None
        if active is None and self.n <= self._ACTIVE_BOUNDARY:
            active = blocks
        return self._search(blocks, active, [])


def _mask_to_assignment(mask: int, n: int) -> Assignment:
    return tuple(bool((mask >> v) & 1) for v in range(n))


def check_enumeration(num_vars: int, cap: int) -> None:
    """Raise ValueError unless enumerate_all accepts this variable count and cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if num_vars > _MASK_VAR_LIMIT:
        raise ValueError(f"enumeration supports up to {_MASK_VAR_LIMIT} variables")


def enumerate_all(
    cnf: Cnf, cap: int, time_budget_us: int | None = None
) -> EnumerationResult:
    """Enumerate satisfying assignments, timestamping each discovery.

    Stops with ``complete`` when exhausted, with ``cap_hit`` when a solution
    beyond ``cap`` is seen (so a formula with exactly ``cap`` solutions still
    enumerates completely), or with neither on budget expiry.  Unsatisfiable
    input yields an empty, complete result.
    """
    check_enumeration(cnf.num_vars, cap)

    setup_start = time.monotonic_ns()
    solver = _Enumerator(cnf)
    blocked = np.zeros(16, dtype=np.int64)  # doubled when full, so cap sizes nothing
    num_blocked = 0
    setup_time_us = (time.monotonic_ns() - setup_start) // 1000

    events: list[SolutionEvent] = []
    complete = False
    cap_hit = False
    start = time.monotonic_ns()
    if time_budget_us is not None:
        solver.deadline_ns = start + time_budget_us * 1000

    while True:
        if solver.deadline_ns is not None and time.monotonic_ns() > solver.deadline_ns:
            break
        try:
            model = solver.solve(blocked[:num_blocked])
        except _Timeout:
            break
        if model is None:
            complete = True
            break
        if len(events) == cap:
            cap_hit = True
            break
        stamp = (time.monotonic_ns() - start) // 1000
        events.append(
            SolutionEvent(
                index=len(events) + 1,
                wall_time_us=int(stamp),
                assignment=_mask_to_assignment(model, cnf.num_vars),
            )
        )
        if num_blocked == len(blocked):
            blocked = np.concatenate([blocked, np.zeros_like(blocked)])
        blocked[num_blocked] = model
        num_blocked += 1

    return EnumerationResult(tuple(events), complete, cap_hit, int(setup_time_us))


def count_solutions_capped(cnf: Cnf, cap: int) -> int | None:
    """Exact solution count when it does not exceed ``cap``, else None."""
    result = enumerate_all(cnf, cap)
    if result.cap_hit:
        return None
    return len(result.events)


def event_to_json(event: SolutionEvent) -> dict:
    return {
        "index": event.index,
        "wall_time_us": event.wall_time_us,
        "assignment": "".join("1" if b else "0" for b in event.assignment),
    }


def event_from_json(line: str | dict) -> SolutionEvent:
    doc = json.loads(line) if isinstance(line, str) else line
    return SolutionEvent(
        index=int(doc["index"]),
        wall_time_us=int(doc["wall_time_us"]),
        assignment=tuple(c == "1" for c in doc["assignment"]),
    )
