"""Blocking-clause ALL-SAT enumeration with per-solution timestamps.

Repeatedly runs a DPLL solve (unit propagation, pure-literal elimination,
most-occurrences branching) and excludes each model found by blocking the
full assignment, until the search space is exhausted, a solution cap is
reached, or a time budget expires.

A search state is an immutable pair of int masks, so everything a state
determines (the units a literal implies, the branch literal, the pure-literal
candidates) is computed once per enumeration and looked up by later solves,
which would otherwise walk the same prefix again from the root.  Blocking
clauses mention every variable, so they are kept as one bitset per literal
over block indices and handled wholesale: the blocks consistent with a state
are an AND of its literals' bitsets, a subtree is abandoned when every one of
its completions is blocked, and a pure literal is only eliminated when no
consistent block holds it.  This is the same pruning the clauses would
provide, computed in bulk.

count_solutions_capped counts without enumerating, in one call of the C
library that anneals (_native._kernel): it walks a bit-sliced truth table
word by word without storing it; generate_mixed_sat screens its draws with it.
Both take each clause's masks from the one word of Cnf.masks.

This module owns the event JSONL file: events_to_jsonl writes a whole file
and events_from_jsonl reads one back, checking every field.  A solution is its
code from the search to that file: the solved ``value`` mask, whose bit v-1
holds variable v.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _native
from .sat import Assignment, Cnf, _column, _jsonl_objects

__all__ = [
    "SolutionEvent",
    "EnumerationResult",
    "enumerate_all",
    "check_enumeration",
    "count_solutions_capped",
    "events_to_jsonl",
    "events_from_jsonl",
]

_MASK_VAR_LIMIT = 62  # the most variables enumerate_all accepts, part of the CLI contract
_TIMEOUT_CHECK_NODES = 2048
_DEAD_SET_LIMIT = 2_000_000  # memoization is an optimization; stop growing past this
_MEMO_LIMIT = 100_000  # entries in each of the closure and branch-info memos, ~190 B each
_COUNT_MAX_BYTES = 8 << 20  # the truth-table words count_solutions_capped walks: n <= 26


@dataclass(frozen=True)
class SolutionEvent:
    """A solution's code (bit v-1 holds variable v), discovery time and 1-based ordinal."""

    index: int
    wall_time_us: int
    code: int


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of an enumeration run.

    ``complete`` means the search space was exhausted; ``cap_hit`` means a
    solution beyond the cap exists (the first ``cap`` are in ``events``).
    The two are mutually exclusive; both false means the time budget expired.

    The search counters are deterministic for a run the budget did not cut:
    ``nodes`` search nodes visited, ``solve_calls`` solves started,
    ``dead_size`` states recorded as holding no unblocked model and
    ``dead_hits`` subtrees skipped because their state was recorded.
    """

    events: tuple[SolutionEvent, ...]
    complete: bool
    cap_hit: bool
    num_vars: int = 0  # the width of each event's code
    setup_time_us: int = 0
    nodes: int = 0
    solve_calls: int = 0
    dead_size: int = 0
    dead_hits: int = 0

    def __post_init__(self) -> None:
        if self.complete and self.cap_hit:
            raise ValueError("complete and cap_hit are mutually exclusive")

    def assignments(self) -> list[Assignment]:
        """Each event's assignment as num_vars bools, variable 1 first, built on each call."""
        return [tuple(bool(e.code >> v & 1) for v in range(self.num_vars)) for e in self.events]


class _Timeout(Exception):
    pass


def _literals(bits: int, value: int):
    """The literal indices that ``value`` gives the variables on ``bits``."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield 2 * (low.bit_length() - 1) + (not value & low)


class _Enumerator:
    """DPLL search whose states are immutable int-mask pairs, memoized across solves.

    A state is ``(assigned, value)``: bit v of ``assigned`` is set when
    variable v + 1 has a value, and bit v of ``value`` holds it.  Literals are
    indices ``2 * v`` (true) and ``2 * v + 1`` (false), so ``lit ^ 1`` negates.

    Only the literals a search applies trigger unit propagation, so the
    closure of a state plus a literal is a pure function of the masks, and so
    are a state's branch literal (most occurrences in unsatisfied clauses,
    lowest index on ties, the polarity that occurs more) and its pure-literal
    candidates.  ``closures`` and ``infos`` memoize both for every solve of
    one enumeration; later solves walk the prefix earlier ones computed
    without re-deriving it.  A state's info is derived from its predecessor's
    unsatisfied-clause bitset, minus the clauses its new literals satisfy.

    Blocks (models found so far) are bit k of ``blocks_with[lit]`` for each
    literal model k makes true, so the blocks consistent with a state are an
    AND of its literals' bitsets.  That active set is materialized once at
    most ``_ACTIVE_BOUNDARY`` variables are unassigned (at the root when there
    are few variables), or from the root when there are no blocks; a subtree
    is abandoned when every one of its completions is blocked, and a pure
    literal is eliminated only when no active block holds it, never while the
    set is unmaterialized, which is sound since the rule is optional.
    """

    _ACTIVE_BOUNDARY = 16

    def __init__(self, cnf: Cnf):
        n = self.n = cnf.num_vars
        self.pos, self.neg = cnf.masks[:, :, 0].tolist()  # one word: n <= 62
        self.clause_vars = [p | q for p, q in zip(self.pos, self.neg)]
        self.occ: list[list[int]] = [[] for _ in range(2 * n)]  # clauses holding each literal
        for ci, (bits, pos) in enumerate(zip(self.clause_vars, self.pos)):
            for lit in _literals(bits, pos):
                self.occ[lit].append(ci)
        self.occ_bits = [sum(1 << ci for ci in cs) for cs in self.occ]
        self.blocks_with = [0] * (2 * n)
        self.all_blocks = 0
        self.num_blocks = 0
        self.closures: dict[tuple[int, int, int], tuple[int, int] | None] = {}
        # (branch literal, pure-literal candidates, unsatisfied-clause bitset)
        self.infos: dict[tuple[int, int], tuple[int, tuple[int, ...], int]] = {}
        self.root_info = self._info_of(0, (1 << len(self.pos)) - 1)
        self.deadline_ns: int | None = None
        self.nodes = 0
        self.solve_calls = 0
        self.dead_hits = 0
        # States proven to hold no unblocked model.  Blocks only grow, so dead
        # stays dead; later solves skip these subtrees outright.
        self.dead: set[tuple[int, int]] = set()

    # -- pure functions of the masks, memoized -------------------------------------

    def _propagate(self, assigned: int, value: int, lit: int) -> tuple[int, int] | None:
        """The state after lit and the units it implies, or None on a conflict."""
        occ, pos, neg, clause_vars = self.occ, self.pos, self.neg, self.clause_vars
        queue = [lit]
        for lit in queue:
            bit = 1 << (lit >> 1)
            if assigned & bit:
                if bool(value & bit) == lit & 1:
                    return None
                continue
            assigned |= bit
            if not lit & 1:
                value |= bit
            falsified = assigned & ~value
            for ci in occ[lit ^ 1]:
                if value & pos[ci] or falsified & neg[ci]:
                    continue
                free = clause_vars[ci] & ~assigned
                if not free:
                    return None
                if not free & (free - 1):
                    queue.append(2 * (free.bit_length() - 1) + (not free & pos[ci]))
        return assigned, value

    def _close(self, assigned: int, value: int, lit: int) -> tuple[int, int] | None:
        key = (assigned, value, lit)
        closed = self.closures.get(key, key)  # the key itself marks a miss: None is a conflict
        if closed is key:
            closed = self._propagate(assigned, value, lit)
            if len(self.closures) < _MEMO_LIMIT:
                self.closures[key] = closed
        return closed

    def _info_of(self, assigned: int, unsat: int) -> tuple[int, tuple[int, ...], int]:
        occ_bits = self.occ_bits
        best_score, best_lit = -1, -1
        candidates = []
        for v in range(self.n):
            if assigned >> v & 1:
                continue
            p = (occ_bits[2 * v] & unsat).bit_count()
            q = (occ_bits[2 * v + 1] & unsat).bit_count()
            if p + q > best_score:
                best_score = p + q
                best_lit = 2 * v + (p < q)
            if p:
                if not q:
                    candidates.append(2 * v)
            elif q:
                candidates.append(2 * v + 1)
        return best_lit, tuple(candidates), unsat

    def _info(self, assigned: int, value: int, before: int, info: tuple) -> tuple:
        """The info of (assigned, value), whose variables on ``assigned & ~before``
        were set after the state that ``info`` describes."""
        key = (assigned, value)
        found = self.infos.get(key)
        if found is not None:
            return found
        unsat = info[2]
        for lit in _literals(assigned & ~before, value):
            unsat &= ~self.occ_bits[lit]
        found = self._info_of(assigned, unsat)
        if len(self.infos) < _MEMO_LIMIT:
            self.infos[key] = found
        return found

    # -- blocks ------------------------------------------------------------------------

    def block(self, model: int) -> None:
        """Exclude a full assignment from every later solve."""
        bit = 1 << self.num_blocks
        for v in range(self.n):
            self.blocks_with[2 * v + (not model >> v & 1)] |= bit
        self.all_blocks |= bit
        self.num_blocks += 1

    def _consistent(self, assigned: int, value: int) -> int:
        active = self.all_blocks
        for lit in _literals(assigned, value):
            active &= self.blocks_with[lit]
        return active

    # -- search ------------------------------------------------------------------------

    def _search(
        self, assigned: int, value: int, info: tuple, active: int | None, lit: int | None
    ) -> int | None:
        self.nodes += 1
        if self.deadline_ns is not None and self.nodes % _TIMEOUT_CHECK_NODES == 0:
            if time.monotonic_ns() > self.deadline_ns:
                raise _Timeout

        if lit is not None:
            closed = self._close(assigned, value, lit)
            if closed is None:
                return None
            before = assigned
            assigned, value = closed
            if active:
                for fresh in _literals(assigned & ~before, value):
                    active &= self.blocks_with[fresh]
            info = self._info(assigned, value, before, info)
        unassigned = self.n - assigned.bit_count()
        if active is None and unassigned <= self._ACTIVE_BOUNDARY:
            active = self._consistent(assigned, value)
        while active is not None:
            for pure in info[1]:
                if not active & self.blocks_with[pure]:
                    break
            else:
                break
            # every active block holds the pure literal's negation, so none is left
            active = 0
            before = assigned
            assigned |= 1 << (pure >> 1)
            if not pure & 1:
                value |= 1 << (pure >> 1)
            unassigned -= 1
            info = self._info(assigned, value, before, info)

        if active and active.bit_count() == 1 << unassigned:
            return None  # every completion below here is already blocked
        if not unassigned:
            return value
        key = (assigned, value)
        if key in self.dead:
            self.dead_hits += 1
            return None
        first = info[0]
        for lit in (first, first ^ 1):
            model = self._search(assigned, value, info, active, lit)
            if model is not None:
                return model
        if len(self.dead) < _DEAD_SET_LIMIT:
            self.dead.add(key)
        return None

    def solve(self) -> int | None:
        """Find one model consistent with no block, or None if exhausted."""
        self.solve_calls += 1
        active = self.all_blocks if not self.num_blocks else None
        return self._search(0, 0, self.root_info, active, None)


def check_enumeration(num_vars: int, cap: int, time_budget_us: int | None = None) -> None:
    """Raise ValueError unless enumerate_all accepts this variable count, cap and budget."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if time_budget_us is not None and time_budget_us < 0:
        raise ValueError("time budget must be >= 0")
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
    check_enumeration(cnf.num_vars, cap, time_budget_us)

    setup_start = time.monotonic_ns()
    solver = _Enumerator(cnf)
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
            model = solver.solve()
        except _Timeout:
            break
        if model is None:
            complete = True
            break
        if len(events) == cap:
            cap_hit = True
            break
        stamp = (time.monotonic_ns() - start) // 1000
        events.append(SolutionEvent(len(events) + 1, stamp, model))
        solver.block(model)

    return EnumerationResult(
        tuple(events), complete, cap_hit, cnf.num_vars, setup_time_us,
        nodes=solver.nodes, solve_calls=solver.solve_calls,
        dead_size=len(solver.dead), dead_hits=solver.dead_hits,
    )


def count_solutions_capped(cnf: Cnf, cap: int) -> int | None:
    """Exact solution count over all num_vars variables when it is at most ``cap``, else None.

    The kernel's cascor_count_solutions streams over the truth table's
    2**(n - 6) uint64 words, one bit per assignment, without storing them, and
    stops as soon as the count passes the cap.  Past ``_COUNT_MAX_BYTES`` of
    words, the capped enumerator counts instead.
    """
    check_enumeration(cnf.num_vars, cap)
    n = cnf.num_vars
    if 8 << max(n - 6, 0) > _COUNT_MAX_BYTES:
        result = enumerate_all(cnf, cap)
        return None if result.cap_hit else len(result.events)
    masks = np.ascontiguousarray(cnf.masks[:, :, 0].T)  # (pos, neg) per clause: n <= 26
    count = _native._kernel().cascor_count_solutions(
        n, len(cnf.clauses), masks, min(cap, 1 << n), np.empty(3 * len(cnf.clauses), np.uint64))
    return None if count < 0 else count


def events_to_jsonl(events: Sequence[SolutionEvent], num_vars: int) -> str:
    """The event JSONL text: one line per event, in order, each code below 2**num_vars."""
    # a sentinel bit above the code keeps its leading zeros; the text runs from bit 0 up
    top = 1 << num_vars
    return "".join(
        f'{{"index": {e.index}, "wall_time_us": {e.wall_time_us}, '
        f'"assignment": "{format(e.code | top, "b")[:0:-1]}"}}\n'
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
    if np.any(times < np.concatenate([[0], times[:-1]])):  # compared, not subtracted: no wrap
        raise ValueError("event times must be non-negative and never decrease")
    joined = "".join(t if type(t) is str and len(t) == num_vars else "?" for t in texts)
    if not set(joined) <= {"0", "1"}:
        raise ValueError(f"every assignment must be {num_vars} characters of 0 or 1")
    codes = (int(a[::-1] or "0", 2) for a in texts)  # variable 1 leads: reversed, it is binary
    rows = zip(times.tolist(), codes)
    return [SolutionEvent(index, t, c) for index, (t, c) in enumerate(rows, 1)]
