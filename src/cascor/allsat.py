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

count_solutions_capped counts without enumerating, on a bit-sliced truth
table; generate_mixed_sat screens its draws with it.

This module owns the event JSONL file: events_to_jsonl writes a whole file
and events_from_jsonl reads one back, checking every field.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sat import Assignment, Cnf, _bit_text, _column, _jsonl_objects

__all__ = [
    "SolutionEvent",
    "EnumerationResult",
    "enumerate_all",
    "check_enumeration",
    "count_solutions_capped",
    "events_to_jsonl",
    "events_from_jsonl",
]

_MASK_VAR_LIMIT = 62  # assignments are stored as int64 bit masks
_TIMEOUT_CHECK_NODES = 2048
_DEAD_SET_LIMIT = 2_000_000  # memoization is an optimization; stop growing past this
_COUNT_MAX_BYTES = 8 << 20  # count_solutions_capped's truth table: n <= 26 variables
_ALL_ONES = (1 << 64) - 1
# Bit b of truth-table word w is the assignment whose variables 1..6 spell b
# and whose variables 7..n spell w: the words where each of them holds.
_LOW_VAR_WORDS = tuple(np.uint64(sum(1 << b for b in range(64) if b >> j & 1)) for j in range(6))
_MID_VAR_WORDS = tuple(
    np.array([_ALL_ONES if w >> j & 1 else 0 for w in range(64)], dtype=np.uint64) for j in range(6)
)


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


def _literal_words(lit: int, n: int) -> np.ndarray:
    """The truth-table words in which a literal holds, shaped to broadcast over the table.

    Variables 1..6 pick a bit inside each word, so their words are one
    constant.  Variables 7..12 pick a word along the table's last axis, which
    keeps the AND's inner loop 64 words long; each higher variable v has a
    length-2 axis of its own, at ``n - v``.
    """
    v = abs(lit)
    if v <= 6:
        words = _LOW_VAR_WORDS[v - 1]
    elif v <= 12:
        words = _MID_VAR_WORDS[v - 7][: 1 << min(n - 6, 6)]
    else:
        shape = [1] * (n - 11)
        shape[n - v] = 2
        words = np.array([0, _ALL_ONES], dtype=np.uint64).reshape(shape)
    return words if lit > 0 else ~words


def count_solutions_capped(cnf: Cnf, cap: int) -> int | None:
    """Exact solution count over all num_vars variables when it is at most ``cap``, else None.

    Counts on a bit-sliced truth table: one bit per assignment, 2**(n - 6)
    uint64 words, the clauses' ORed literal words ANDed in place and the set
    bits counted.  Past ``_COUNT_MAX_BYTES`` of table, the capped enumerator
    counts instead.
    """
    check_enumeration(cnf.num_vars, cap)
    n = cnf.num_vars
    if 8 << max(n - 6, 0) > _COUNT_MAX_BYTES:
        result = enumerate_all(cnf, cap)
        return None if result.cap_hit else len(result.events)
    full = _ALL_ONES if n >= 6 else (1 << (1 << n)) - 1  # bits of no assignment stay clear
    row = 1 << min(max(n - 6, 0), 6)
    table = np.full((2,) * max(n - 12, 0) + (row,), full, dtype=np.uint64)
    for clause in cnf.clauses:
        words = np.zeros((), dtype=np.uint64)
        for lit in clause.literals:
            words = words | _literal_words(lit.to_dimacs(), n)
        table &= words
    count = int(np.bitwise_count(table).sum())
    return count if count <= cap else None


def events_to_jsonl(events: Sequence[SolutionEvent]) -> str:
    """The event JSONL text: one line per event, in order."""
    return "".join(
        f'{{"index": {e.index}, "wall_time_us": {e.wall_time_us}, '
        f'"assignment": "{_bit_text(e.assignment)}"}}\n'
        for e in events
    )


def events_from_jsonl(text: str, num_vars: int) -> list[SolutionEvent]:
    """The events of an event JSONL text.

    Raises ValueError unless the lines hold indices 1, 2, ... in order,
    integer times that are non-negative and never decrease, and assignments
    of num_vars 0/1 characters.
    """
    indices, times, texts = [], [], []
    for doc in _jsonl_objects(text):
        indices.append(doc["index"])
        times.append(doc["wall_time_us"])
        texts.append(doc["assignment"])
    k = len(indices)
    if not np.array_equal(_column(indices, "index", (k,)), np.arange(1, k + 1)):
        raise ValueError(f"event indices are not 1..{k} in order")
    times = _column(times, "wall_time_us", (k,)).astype(np.int64)
    if np.any(np.diff(times, prepend=0) < 0):
        raise ValueError("event times must be non-negative and never decrease")
    joined = "".join(t if type(t) is str and len(t) == num_vars else "?" for t in texts)
    if not set(joined) <= {"0", "1"}:
        raise ValueError(f"every assignment must be {num_vars} characters of 0 or 1")
    bits = np.frombuffer(joined.encode(), dtype=np.uint8).reshape(k, num_vars) == ord("1")
    rows = zip(times.tolist(), bits.tolist())
    return [SolutionEvent(index, t, tuple(a)) for index, (t, a) in enumerate(rows, 1)]
