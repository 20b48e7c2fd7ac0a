"""How fast the machine runs right now, from a fixed reference computation.

The benchmark runs on shared hosts whose speed drifts: the same pass can take
1.5x longer a minute later, and a whole run can fall in a slow stretch. Every
timed pass and set-up is therefore bracketed by runs of ``reference_work``, a
computation of the benchmark's own that never calls cascor and is the same in
every commit. A time is reported both as measured (wallclock) and scaled to
the reference speed::

    scaled = wall * REFERENCE_S / (mean of the reference runs before and after)

So a pass that takes 3.0 s while the reference work takes 0.375 s instead of
0.25 s is reported as 2.0 s.  A faster cascor lowers the scaled time in the
same proportion as the wallclock; a slower machine does not move it.
Contention also comes in bursts of a few seconds, which the two reference
runs catch only in part, so a single scaled pass can still be off by 20%;
the benchmark reports the median over many.

The reference work mixes the three kinds of code cascor spends its time in:
a numpy Metropolis sweep over small arrays (the sampler), a pure-Python
backtracking search over clauses (ALL-SAT), and JSON encode/decode (the
file-based commands).
"""
from __future__ import annotations

import json
import random
import time

import numpy as np

# Median seconds of one `reference_work()` on a 2-core Xeon VM (Python 3.11,
# numpy 2.4) in a quiet period.  Only the unit depends on it: it turns the
# ratio to the reference work back into seconds of that machine.
REFERENCE_S = 0.25


def _anneal(n: int = 50, reads: int = 256, sweeps: int = 100) -> float:
    rng = np.random.default_rng(12345)
    coupling = np.triu(rng.integers(-2, 3, size=(n, n)).astype(np.float64), 1)
    coupling += coupling.T
    h = rng.integers(-2, 3, size=n).astype(np.float64)
    states = np.where(rng.random((reads, n)) < 0.5, -1.0, 1.0)
    for beta in np.linspace(0.1, 12.0, sweeps):
        uniforms = rng.random((reads, n))
        for i in range(n):
            delta = -2.0 * states[:, i] * (states @ coupling[i] + h[i])
            accept = (delta <= 0) | (uniforms[:, i] < np.exp(np.minimum(-beta * delta, 0.0)))
            states[accept, i] *= -1.0
    return float(states.sum())


def _search(num_vars: int = 15, num_clauses: int = 40) -> int:
    """Count the models of a fixed random 3-CNF by naive backtracking."""
    rng = random.Random(7)
    clauses = [
        tuple(rng.choice((-1, 1)) * v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses)
    ]
    assign: dict[int, bool] = {}

    def falsified() -> bool:
        return any(all(abs(lit) in assign and assign[abs(lit)] != (lit > 0) for lit in c) for c in clauses)

    def count(var: int) -> int:
        if falsified():
            return 0
        if var > num_vars:
            return 1
        total = 0
        for value in (False, True):
            assign[var] = value
            total += count(var + 1)
            del assign[var]
        return total

    return count(1)


def _codec(records: int = 3600) -> int:
    """Encode and decode JSONL-sized records one at a time, so memory stays flat."""
    rng = random.Random(3)
    total = 0
    for i in range(records):
        doc = {"read_index": i, "spins": [rng.choice((-1, 1)) for _ in range(20)],
               "energy": rng.randrange(-9, 9), "assignment": "".join(rng.choice("01") for _ in range(10))}
        total += json.loads(json.dumps(doc))["energy"]
    return total


def reference_work() -> float:
    """Run the reference computation once; returns its wallclock seconds."""
    start = time.perf_counter()
    _anneal()
    _search()
    _codec()
    return time.perf_counter() - start


class Gauge:
    """Reference runs taken between timed intervals.

    Call ``mark()`` before the first interval and after each one; ``scale()``
    then gives the factor for the interval that just ended.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> None:
        if not self.samples:
            reference_work()  # warm-up: the first run in a process is slower
        self.samples.append(reference_work())

    def scale(self) -> float:
        before, after = self.samples[-2:]
        return REFERENCE_S / ((before + after) / 2)
