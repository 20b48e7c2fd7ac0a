"""Spans around calls into cascor's layers, recorded from the benchmark's side.

Each layer's public functions are replaced, for the duration of a ``with``
block, by wrappers installed on the module attributes that callers look up at
call time.  A span is (id, name, parent, start, end, group); its layer is the
name's prefix.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str  # "<layer>.<function>"
    parent: int | None
    start_ns: int
    end_ns: int
    group: str  # the pass or set-up the span belongs to

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@contextmanager
def patched(points, wrap):
    """Replace ``module.attr`` by ``wrap(name, original)`` for each point, then restore."""
    saved = []
    try:
        for module, attr, name in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """Collects nested spans from single-threaded calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group = ""
        self._open: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans.append(Span(span_id, name, parent, start, end, self.group))

        return traced

    def in_group(self, group: str) -> list[Span]:
        return [s for s in self.spans if s.group == group]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the durations of its direct children."""
    children = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration_ns
    return {span.id: span.duration_ns - children[span.id] for span in spans}


def layer_self_ns(spans: list[Span]) -> dict[str, int]:
    own = self_ns(spans)
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.layer] += own[span.id]
    return dict(totals)


def total_ns(spans: list[Span], name: str) -> int:
    return sum(s.duration_ns for s in spans if s.name == name)


def overhead_ns(spans: list[Span], outer: str, inner: str) -> int:
    """Time in ``outer`` spans not covered by their direct ``inner`` children."""
    inner_ns = defaultdict(int)
    for span in spans:
        if span.name == inner and span.parent is not None:
            inner_ns[span.parent] += span.duration_ns
    return sum(s.duration_ns - inner_ns[s.id] for s in spans if s.name == outer)
