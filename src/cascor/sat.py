"""CNF data model, DIMACS I/O, assignment evaluation, and random mixed-SAT generation.

Clauses may have heterogeneous lengths (mixed SAT).  Variables are 1-based,
following DIMACS convention; assignments are tuples of booleans indexed by
``var - 1``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "Literal",
    "Clause",
    "Cnf",
    "Assignment",
    "MixedSatSpec",
    "DimacsError",
    "GenerationError",
    "parse_dimacs",
    "emit_dimacs",
    "evaluate",
    "generate_mixed_sat",
]

# An assignment is one boolean per variable, True meaning asserted.
Assignment = tuple[bool, ...]


class DimacsError(ValueError):
    """Raised when DIMACS text is malformed or inconsistent with its header."""


class GenerationError(RuntimeError):
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
        if not self.length_weights:
            raise ValueError("length_weights must be nonempty")
        total = 0.0
        for k, w in self.length_weights.items():
            if not (1 <= k <= self.num_vars):
                raise ValueError(f"clause length {k} outside [1, {self.num_vars}]")
            if w < 0:
                raise ValueError(f"negative weight for length {k}")
            total += w
        if total <= 0:
            raise ValueError("length_weights must have positive total weight")

    def to_json(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "length_weights": {str(k): float(w) for k, w in self.length_weights.items()},
            "seed": self.seed,
            "solution_cap": self.solution_cap,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "MixedSatSpec":
        return cls(
            num_vars=int(doc["num_vars"]),
            num_clauses=int(doc["num_clauses"]),
            length_weights={int(k): float(w) for k, w in doc["length_weights"].items()},
            seed=int(doc["seed"]),
            solution_cap=int(doc["solution_cap"]),
        )

    @classmethod
    def from_json_text(cls, text: str) -> "MixedSatSpec":
        return cls.from_json(json.loads(text))


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


def _bit_text(assignment: Assignment) -> str:
    """An assignment as 0/1 characters, variable 1 first: the JSONL files' form."""
    return "".join(["1" if b else "0" for b in assignment])


def _jsonl_objects(text: str) -> Iterator[dict]:
    """The JSON object on each nonblank line of a JSONL text; ValueError on anything else."""
    for line in text.splitlines():
        if line.strip():
            doc = json.loads(line)
            if type(doc) is not dict:
                raise ValueError(f"line {line[:40]!r} is not a JSON object")
            yield doc


def _column(values: list, name: str, shape: tuple[int, ...], kinds: str = "i") -> np.ndarray:
    """values as one array of the given shape; ValueError unless its dtype kind is in kinds.

    Integers past int64 (object dtype), an all-boolean or string column, nulls
    and ragged rows fail; numpy reads a boolean among integers as 0 or 1.
    """
    try:
        array = np.array(values)
    except ValueError:  # ragged rows
        array = None
    if array is None or array.shape != shape or (array.size and array.dtype.kind not in kinds):
        kind = "numbers" if "f" in kinds else "integers"
        raise ValueError(f"{name} must be {kind} of shape {shape}")
    return array


def _derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one numbered stream of a master seed.

    Builds what ``np.random.default_rng`` would, without its dispatch.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def _derived_seed(seed: int, stream: int) -> int:
    """Independent 64-bit seed for one numbered stream of a master seed."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1, np.uint64)[0])


def _draw_instance(spec: MixedSatSpec, rng: np.random.Generator) -> Cnf:
    lengths = sorted(k for k, w in spec.length_weights.items() if w > 0)
    weights = np.array([spec.length_weights[k] for k in lengths], dtype=float)
    weights /= weights.sum()
    clauses = []
    for _ in range(spec.num_clauses):
        k = int(rng.choice(lengths, p=weights))
        variables = rng.choice(spec.num_vars, size=k, replace=False) + 1
        negations = rng.random(k) < 0.5
        clauses.append(
            Clause(tuple(Literal(int(v), bool(neg)) for v, neg in zip(variables, negations)))
        )
    return Cnf(spec.num_vars, tuple(clauses))


def generate_mixed_sat(spec: MixedSatSpec, max_attempts: int = 1000) -> tuple[Cnf, int]:
    """Generate a random mixed-SAT instance whose solution count lies in [1, cap].

    Returns the instance and its exact solution count.  Instances are drawn
    from the seeded distribution and checked with one ALL-SAT run capped at
    ``spec.solution_cap``, whose count is the one returned; unsatisfiable or
    over-cap draws are discarded and the seed is re-derived per attempt, so a
    fixed spec always yields the same instance and count.
    """
    from . import allsat  # deferred: allsat imports this module's types

    for attempt in range(max_attempts):
        cnf = _draw_instance(spec, _derived_rng(spec.seed, attempt))
        result = allsat.enumerate_all(cnf, cap=spec.solution_cap)
        if result.complete and 1 <= len(result.events):
            return cnf, len(result.events)
    raise GenerationError(
        f"no admissible instance in {max_attempts} attempts for seed {spec.seed}"
    )
