"""CNF data model, DIMACS I/O, assignment evaluation, and random mixed-SAT generation.

Clauses may have heterogeneous lengths (mixed SAT).  Variables are 1-based,
following DIMACS convention; assignments are tuples of booleans indexed by
``var - 1``.  Outside the reference evaluate, clauses are evaluated in one
form: Cnf.masks, checked by _falsified against assignments packed into
uint64 words.

generate_mixed_sat draws each attempt in one call of the C library that
anneals (_native._kernel).  The draw replays the PCG64 stream of
``Generator(PCG64(SeedSequence((seed, attempt))))`` and makes on it the draws
that numpy's choice and random made when the generator was numpy code
(tests/conftest.py::slow_draw_instance), so its instances depend on PCG64 and
SeedSequence, not on choice's algorithm, which numpy does not freeze.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _native
from ._native import LimitError

__all__ = [
    "Literal",
    "Clause",
    "Cnf",
    "Assignment",
    "MixedSatSpec",
    "DimacsError",
    "GenerationError",
    "LimitError",
    "parse_dimacs",
    "emit_dimacs",
    "evaluate",
    "generate_mixed_sat",
]

# An assignment is one boolean per variable, True meaning asserted.
Assignment = tuple[bool, ...]


class DimacsError(ValueError):
    """Raised when DIMACS text is malformed or inconsistent with its header."""


class GenerationError(LimitError):
    """Raised when the retry budget runs out without an admissible instance."""


@dataclass(frozen=True)
class Literal:
    """A possibly negated occurrence of a 1-based variable."""

    var: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    def to_dimacs(self) -> int:
        return -self.var if self.negated else self.var

    @classmethod
    def from_dimacs(cls, lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("0 is not a DIMACS literal")
        return cls(abs(lit), lit < 0)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals over distinct variables."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if len(self.literals) == 0:
            raise ValueError("empty clause")
        seen = [lit.var for lit in self.literals]
        if len(set(seen)) != len(seen):
            raise ValueError(f"clause repeats a variable: {seen}")

    def __len__(self) -> int:
        return len(self.literals)

    @classmethod
    def of(cls, *lits: int) -> "Clause":
        """Build a clause from signed DIMACS-style integers."""
        return cls(tuple(Literal.from_dimacs(lit) for lit in lits))


@dataclass(frozen=True)
class Cnf:
    """A conjunction of clauses over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.var > self.num_vars:
                    raise ValueError(
                        f"literal references var {lit.var} beyond num_vars={self.num_vars}"
                    )

    @classmethod
    def of(cls, num_vars: int, clause_lits: Iterable[Iterable[int]]) -> "Cnf":
        """Build from signed-integer clause lists, e.g. Cnf.of(3, [[1, -2], [2, 3]])."""
        return cls(num_vars, tuple(Clause.of(*lits) for lits in clause_lits))

    def variables_used(self) -> tuple[int, ...]:
        """Distinct variables that occur in at least one clause, ascending."""
        return tuple(sorted({lit.var for c in self.clauses for lit in c.literals}))

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Each clause's (pos, neg) masks, a read-only (2, clauses, words) _code_words view."""
        def sides():  # taken by _code_words after its size check
            for clause in self.clauses:
                held = neg = 0
                for lit in clause.literals:
                    held |= 1 << lit.var - 1
                    neg |= lit.negated << lit.var - 1
                yield from (held ^ neg, neg)
        words = _code_words(sides(), 2 * len(self.clauses), self.num_vars, "clause masks")
        return words.reshape(-1, 2, words.shape[1]).transpose(1, 0, 2)


@dataclass(frozen=True)
class MixedSatSpec:
    """Parameters for random mixed-SAT generation with solution-count downselection."""

    num_vars: int
    num_clauses: int
    length_weights: Mapping[int, float]
    seed: int
    solution_cap: int

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if self.num_clauses < 0:
            raise ValueError("num_clauses must be >= 0")
        if self.solution_cap < 1:
            raise ValueError("solution_cap must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if not self.length_weights:
            raise ValueError("length_weights must be nonempty")
        total = 0.0
        for k, w in self.length_weights.items():
            if not (1 <= k <= self.num_vars):
                raise ValueError(f"clause length {k} outside [1, {self.num_vars}]")
            if not 0 <= w < np.inf:
                raise ValueError(f"weight {w} for length {k} is not finite and >= 0")
            total += w
        if not 0 < total < np.inf:
            raise ValueError("length_weights must have a positive, finite total weight")

    def to_json(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "length_weights": {str(k): float(w) for k, w in self.length_weights.items()},
            "seed": self.seed,
            "solution_cap": self.solution_cap,
        }


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF text into a Cnf.

    Accepts comment lines (``c ...``), a single ``p cnf n m`` header, and
    0-terminated clauses that may span lines.  Raises DimacsError on any
    structural problem.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[Clause] = []
    pending: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer header field") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"line {lineno}: negative header count")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer token {tok!r}") from exc
            if lit == 0:
                if not pending:
                    raise DimacsError(f"line {lineno}: empty clause")
                try:
                    clause = Clause.of(*pending)
                except ValueError as exc:
                    raise DimacsError(f"line {lineno}: {exc}") from exc
                for l in clause.literals:
                    if l.var > num_vars:
                        raise DimacsError(
                            f"line {lineno}: var {l.var} exceeds header n={num_vars}"
                        )
                clauses.append(clause)
                pending = []
            else:
                pending.append(lit)

    if num_vars is None or num_clauses is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but {len(clauses)} were given"
        )
    return Cnf(num_vars, tuple(clauses))


def emit_dimacs(cnf: Cnf) -> str:
    """Serialize a Cnf as DIMACS text; round-trips through parse_dimacs."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit.to_dimacs()) for lit in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(cnf: Cnf, assignment: Assignment) -> bool:
    """True iff every clause has at least one literal satisfied by the assignment."""
    if len(assignment) != cnf.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {cnf.num_vars}"
        )
    return all(
        any(assignment[lit.var - 1] != lit.negated for lit in clause.literals)
        for clause in cnf.clauses
    )


def _code_words(codes: Iterable[int], count: int, num_vars: int, what: str) -> np.ndarray:
    """count codes below 2**num_vars as read-only rows of uint64 words, bit (v-1) % 64 of
    word (v-1) // 64 holding variable v; LimitError, before taking one, past the run limit."""
    width = 8 * max(1, -(-num_vars // 64))
    _native._check_run_size(count, width, what)
    packed = b"".join([code.to_bytes(width, "little") for code in codes])
    return np.frombuffer(packed, dtype="<u8").reshape(count, width // 8)


def _falsified(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether each _code_words row falsifies a clause, all its pos bits 0 and neg bits 1."""
    care = masks[0] | masks[1]
    falsified = np.empty(len(words), dtype=bool)
    step = max(1, (1 << 20) // (care.size + 1))  # rows x clauses x words in a block
    for start in range(0, len(words), step):
        block = words[start:start + step, None]
        falsified[start:start + step] = ((block & care) == masks[1]).all(axis=2).any(axis=1)
    return falsified


def _bit_text(assignment: Assignment) -> str:
    """An assignment as 0/1 characters, variable 1 first: the JSONL files' form."""
    return "".join(["1" if b else "0" for b in assignment])


def _jsonl_objects(text: str) -> Iterator[dict]:
    """The JSON object on each nonblank line of a JSONL text; ValueError on anything else.

    Lines end at "\n" only, and are cut from text one at a time.  A line is
    decoded as json.loads decodes a string, without its wrapper: JSON
    whitespace (space, tab, CR, LF) may surround the one value, and anything
    else (a second value, a form feed, a BOM) fails.
    """
    decode = json.JSONDecoder().raw_decode
    start = 0
    while start < len(text):
        stop = text.find("\n", start)
        if stop < 0:
            stop = len(text)
        line, start = text[start:stop], stop + 1
        if line.strip():
            body = line.strip(" \t\r\n")
            try:
                doc, end = decode(body)
            except RecursionError:  # nesting deeper than the interpreter's recursion limit
                raise ValueError(f"line {line[:40]!r} nests too deeply") from None
            if end != len(body) or type(doc) is not dict:
                raise ValueError(f"line {line[:40]!r} is not one JSON object")
            yield doc


def _column(values: list, name: str, shape: tuple[int, ...], kinds: str = "i") -> np.ndarray:
    """values as one array of the given shape; ValueError unless its dtype kind is in kinds.

    Integers past int64 (object dtype), booleans, strings, nulls and ragged
    rows fail.  An array passes through uncopied.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows
        array = None
    kind = "numbers" if "f" in kinds else "integers"
    if array is None or array.shape != shape or (array.size and array.dtype.kind not in kinds):
        raise ValueError(f"{name} must be {kind} of shape {shape}")
    if array is values:  # an array of integer or float dtype holds no JSON boolean
        return array
    # numpy reads a boolean among numbers as 0 or 1; rows are lists once the shape holds
    scalars = itertools.chain.from_iterable(values) if len(shape) == 2 else values
    if bool in set(map(type, scalars)):
        raise ValueError(f"{name} must be {kind}, not booleans")
    return array


def _derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one numbered stream of a master seed.

    Builds what ``np.random.default_rng`` would, without its dispatch.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def _derived_seed(seed: int, stream: int) -> int:
    """Independent 64-bit seed for one numbered stream of a master seed."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1, np.uint64)[0])


# A drawn clause's Python objects, by tracemalloc on CPython 3.11: 128 bytes for the
# Clause and its tuple, and 104 a literal for its Literal and its int in a list
_CLAUSE_BYTES, _LITERAL_BYTES = 128, 104


def _draw_instance(spec: MixedSatSpec, attempt: int) -> Cnf:
    """Draw number attempt of spec, by the kernel's cascor_draw_instance.

    The clauses are those that numpy's choice and random draw on
    ``_derived_rng(spec.seed, attempt)`` (tests/conftest.py::slow_draw_instance)
    for num_vars up to 10000.  Raises LimitError, before allocating them, when
    the draw's arrays and objects would pass the run size limit.
    """
    lengths = sorted(k for k, w in spec.length_weights.items() if w > 0)
    weights = np.array([spec.length_weights[k] for k in lengths], dtype=float)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]  # as choice normalizes its cumulative weights
    # per clause: its length, a row of the longest length's literals, and its objects
    row = (8 + _LITERAL_BYTES) * lengths[-1] + _CLAUSE_BYTES
    _native._check_run_size(spec.num_clauses, row, "drawn clauses")
    sizes = np.empty(spec.num_clauses, dtype=np.int64)
    literals = np.empty(spec.num_clauses * lengths[-1], dtype=np.int64)
    seed_words = _native._seed_words(spec.seed)
    total = _native._kernel().cascor_draw_instance(
        seed_words, len(seed_words), attempt, spec.num_vars, spec.num_clauses,
        np.array(lengths, dtype=np.int64), cdf, len(lengths), sizes, literals)
    flat = literals[:total].tolist()
    clauses, start = [], 0
    for k in sizes.tolist():
        clauses.append(Clause(tuple([Literal(abs(x), x < 0) for x in flat[start:start + k]])))
        start += k
    return Cnf(spec.num_vars, tuple(clauses))


def generate_mixed_sat(spec: MixedSatSpec, max_attempts: int = 1000) -> tuple[Cnf, int]:
    """Generate a random mixed-SAT instance whose solution count lies in [1, cap].

    Returns the instance and its exact solution count over all ``num_vars``
    variables.  Instances are drawn from the seeded distribution and screened
    by ``allsat.count_solutions_capped`` at ``spec.solution_cap``, whose count
    is the one returned; unsatisfiable or over-cap draws are discarded and the
    seed is re-derived per attempt, so a fixed spec always yields the same
    instance and count.  Raises ValueError, before the first draw, when the
    counter cannot take the spec's variables or cap.
    """
    from . import allsat  # deferred: allsat sits above sat, and its count can enumerate

    allsat.check_enumeration(spec.num_vars, spec.solution_cap)
    for attempt in range(max_attempts):
        cnf = _draw_instance(spec, attempt)
        count = allsat.count_solutions_capped(cnf, spec.solution_cap)
        if count:
            return cnf, count
    raise GenerationError(
        f"no admissible instance in {max_attempts} attempts for seed {spec.seed}"
    )
