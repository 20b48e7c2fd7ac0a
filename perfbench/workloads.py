"""The workloads: how each instance set is set up and how one pass runs.

Every workload is a single closed-loop client: it calls ``cascor.cli.main``
(or, for the ground-state oracle, a public library function) and issues the
next call only after the previous one returned.  The output checks compare
what cascor returns with the benchmark's own evaluator in ``oracle.py``.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from cascor import allsat, cli, compiler, ising, metrics, samplers

from . import oracle

TRUTH_TABLE_MAX_VARS = 20
# Set-up is repeated at least this many times and for at least this long,
# its reference runs included; the median is reported.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
_SPEC_SEED_LIMIT = 1000  # family draws tried before set-up gives up

_BENCH_OVERHEAD = ("--programming-us", "20000", "--readout-us", "1980")


@dataclass(frozen=True)
class Family:
    """Random mixed-SAT draws, screened the way ``cascor gen`` screens them.

    ``cap`` is gen's solution cap; a draw is kept when its count is at least
    ``min_count`` and its compiled model has at most ``max_qubits`` qubits.
    Variables that occur in no clause are deliberately not screened out.
    """

    n: int
    m: int
    lengths: str
    cap: int
    size: int
    min_count: int = 1
    max_qubits: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    family: Family
    kind: str  # "bench": one `cascor bench` per pass; "files": the file-based sequence
    flags: tuple[str, ...]


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The acceptance-8 family through `cascor bench`: annealing dominates.
        Workload(
            "crossover",
            Family(n=20, m=44, lengths="2:3,3:3,4:1", cap=800, min_count=30, size=3),
            "bench",
            ("--reads", "5000", "--sweeps", "50", "--beta-end", "12") + _BENCH_OVERHEAD,
        ),
        # Thousands of solutions per instance and few reads: ALL-SAT dominates.
        Workload(
            "enumerate",
            Family(n=24, m=50, lengths="2:1,3:2,4:1", cap=20000, min_count=5000, size=1),
            "bench",
            ("--reads", "1000") + _BENCH_OVERHEAD,
        ),
        # The acceptance-9 family through the file-based commands: small models,
        # so SRT rotation and JSONL encode/decode are visible.
        Workload(
            "srt-files",
            Family(n=10, m=12, lengths="2:1,3:1", cap=100, size=4, max_qubits=20),
            "files",
            ("--reads", "1000", "--gauges", "4") + _BENCH_OVERHEAD,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    path: Path
    num_vars: int
    clauses: oracle.Clauses
    count: int  # solution count gen recorded for the drawn instance

    @property
    def unused_vars(self) -> int:
        return self.num_vars - len(oracle.used_vars(self.clauses))


@dataclass(frozen=True)
class InstanceSet:
    directory: Path
    instances: tuple[Instance, ...]
    sampler_seed: int

    def by_key(self) -> dict[tuple, Instance]:
        return {oracle.clause_key(i.clauses): i for i in self.instances}


@dataclass
class Session:
    """Operation and failure counts of one run; every cascor call goes through here."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    latency: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    record_latency: bool = False

    def call(self, label: str, fn, *args):
        """One operation; an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def command(self, argv: list) -> bool:
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.call(argv[0], cli.main, argv)
        if self.record_latency:
            self.latency[argv[0]].append(time.perf_counter() - start)
        if rc not in (0, None):
            self.failures.append(f"{argv[0]}: exit code {rc}")
        return rc == 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check: {message}")


def setup(session: Session, wl: Workload, seed: int, dest: Path) -> InstanceSet:
    """Draw and screen the family with `cascor gen`, then write seeded isomorphs.

    Draws use spec seeds 0, 1, 2, ... so the screened set is fixed per
    family; ``seed`` picks a random isomorph of each instance and the sampler
    seed, which changes every input byte while keeping the work per pass.
    """
    fam = wl.family
    drawn, inst_dir = dest / "drawn", dest / "instances"
    drawn.mkdir(parents=True, exist_ok=True)
    inst_dir.mkdir(parents=True, exist_ok=True)
    kept = []
    for spec_seed in range(_SPEC_SEED_LIMIT):
        if len(kept) == fam.size:
            break
        path = drawn / f"s{spec_seed}.cnf"
        ok = session.command(
            ["gen", "--n", fam.n, "--m", fam.m, "--lengths", fam.lengths,
             "--cap", fam.cap, "--seed", spec_seed, "--out", path]
        )
        if not ok:
            continue
        count = json.loads(Path(f"{path}.json").read_text())["solution_count"]
        num_vars, clauses = oracle.parse_dimacs(path.read_text())
        if count is None or count < fam.min_count:
            continue
        if fam.max_qubits is not None and oracle.qubit_count(clauses) > fam.max_qubits:
            continue
        kept.append((num_vars, clauses, count))
    if len(kept) < fam.size:
        raise RuntimeError(f"{wl.name}: set-up kept {len(kept)} of {fam.size} instances")

    rng = random.Random(seed)
    sampler_seed = rng.randrange(1 << 31)
    instances = []
    for idx, (num_vars, clauses, count) in enumerate(kept):
        relabeled = oracle.isomorph(num_vars, clauses, rng)
        path = inst_dir / f"i{idx:02d}.cnf"
        path.write_text(oracle.emit_dimacs(num_vars, relabeled))
        instances.append(Instance(path, num_vars, relabeled, count))
    return InstanceSet(inst_dir, tuple(instances), sampler_seed)


def run_pass(session: Session, wl: Workload, inst: InstanceSet, out: Path, check: bool = False) -> str:
    """One pass over the instance set; returns a digest of the byte-stable outputs."""
    out.mkdir(parents=True, exist_ok=True)
    if wl.kind == "bench":
        session.command(
            ["bench", "--instances", inst.directory, "--seed", inst.sampler_seed, *wl.flags,
             "--stable-output", "--reports-dir", out / "reports", "--out", out / "bench.csv"]
        )
        outputs = [out / "bench.csv", *sorted((out / "reports").glob("*.json"))]
    else:
        outputs = []
        for idx, instance in enumerate(inst.instances):
            outputs += _files_sequence(session, wl, instance, inst.sampler_seed + idx, out, check)
    digest = hashlib.sha256()
    for path in outputs:
        digest.update(path.name.encode())
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def _files_sequence(session, wl, instance, sampler_seed, out, check) -> list[Path]:
    stem = out / instance.path.stem
    model, samples, events, report = (
        Path(f"{stem}.{ext}") for ext in ("model.json", "samples.jsonl", "events.jsonl", "report.json")
    )
    cnf = instance.path
    session.command(["compile", "--cnf", cnf, "--policy", "chain", "--out", model])
    session.command(["sample", "--model", model, "--cnf", cnf, "--seed", sampler_seed, *wl.flags,
                     "--out", samples])
    session.command(["allsat", "--cnf", cnf, "--cap", 100000, "--stable-output", "--out", events])
    session.command(["metrics", "--cnf", cnf, "--model", model, "--samples", samples,
                     "--events", events, "--instance-id", instance.path.stem, "--out", report])
    doc = session.call("load-model", lambda: json.loads(model.read_text()))
    loaded = doc and session.call("compiled_from_json", compiler.compiled_from_json, doc)
    ground = loaded and session.call("oracle", ising.enumerate_ground_states, loaded[0])
    if check:
        check_ground_states(session, instance, doc, ground, events)
    return [model, samples, events, report]


def check_ground_states(session, instance, doc, ground, events_path) -> None:
    """Oracle energy equals the layout bound; ground states project onto ALL-SAT."""
    session.check(ground is not None and doc is not None, f"{instance.path.name}: no oracle result")
    if ground is None or doc is None:
        return
    energy, states = ground
    used = oracle.used_vars(instance.clauses)
    var_to_qubit = {int(v): q for v, q in doc["var_to_qubit"].items()}
    session.check(sorted(var_to_qubit) == used, f"{instance.path.name}: variable qubits != used variables")
    session.check(energy == doc["ground_bound"],
                  f"{instance.path.name}: oracle energy {energy} != ground_bound {doc['ground_bound']}")
    h = doc["h"]
    own = {
        sum(h[q] * s[q] for q in range(len(h))) + sum(v * s[i] * s[j] for i, j, v in doc["J"])
        for s in states
    }
    session.check(own == {energy}, f"{instance.path.name}: ground-state energies {own} != {energy}")
    ground_proj = {tuple(s[var_to_qubit[v]] > 0 for v in used) for s in states}
    lines = events_path.read_text().splitlines() if events_path.exists() else []
    allsat_proj = {tuple(json.loads(line)["assignment"][v - 1] == "1" for v in used) for line in lines}
    session.check(ground_proj == allsat_proj,
                  f"{instance.path.name}: ground states do not project onto the ALL-SAT set")


def coverage(wl: Workload, out: Path) -> tuple[int, int]:
    """(distinct quantum solutions, classical solutions) summed over the pass's reports."""
    pattern = "reports/*.report.json" if wl.kind == "bench" else "*.report.json"
    quantum = classical = 0
    for path in out.glob(pattern):
        meta = json.loads(path.read_text())["metadata"]
        quantum += meta["quantum_distinct"]
        classical += meta["classical_distinct"]
    return quantum, classical


# Module attributes that callers look up at call time, with the span each gets.
TRACE_POINTS = [
    (cli, "main", "cli.main"),
    (cli, "parse_dimacs", "sat.parse_dimacs"),
    (cli, "generate_mixed_sat", "sat.generate_mixed_sat"),
    (cli, "compile_cnf", "compiler.compile_cnf"),
    (cli, "compiled_from_json", "compiler.compiled_from_json"),
    (compiler, "compiled_from_json", "compiler.compiled_from_json"),
    (samplers, "sample", "samplers.sample"),
    (samplers, "sample_with_srt_rotation", "samplers.sample_with_srt_rotation"),
    (samplers, "random_gauges", "samplers.random_gauges"),
    (samplers, "decode_all", "samplers.decode_all"),
    (samplers, "apply_gauge", "ising.apply_gauge"),
    (ising, "enumerate_ground_states", "ising.enumerate_ground_states"),
    (allsat, "enumerate_all", "allsat.enumerate_all"),
    (allsat, "count_solutions_capped", "allsat.count_solutions_capped"),
    (metrics, "summarize_instance", "metrics.summarize_instance"),
]


class Observer:
    """Counts and output checks taken from cascor's calls during the checked pass."""

    POINTS = [
        (cli, "compile_cnf", "compile_cnf"),
        (samplers, "sample", "sample"),
        (samplers, "decode_all", "decode_all"),
        (allsat, "enumerate_all", "enumerate_all"),
        (metrics, "summarize_instance", "summarize_instance"),
    ]

    def __init__(self, session: Session, inst: InstanceSet) -> None:
        self.session = session
        self.by_key = inst.by_key()
        self.counts = Counter()

    def wrap(self, name: str, fn):
        reduce = getattr(self, f"_{name}")

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.session.call(f"observe {name}", reduce, result, *args)
            return result

        return observed

    def _instance(self, cnf) -> Instance | None:
        key = oracle.clause_key(
            tuple(lit.to_dimacs() for lit in clause.literals) for clause in cnf.clauses
        )
        found = self.by_key.get(key)
        self.session.check(found is not None, "cascor's CNF matches no instance file")
        return found

    def _compile_cnf(self, result, cnf, *_):
        model, _layout = result
        self.counts["qubits"] += model.num_qubits
        self.counts["couplers"] += len(model.J)
        inst = self._instance(cnf)
        if inst is not None:
            expected = oracle.qubit_count(inst.clauses)
            self.session.check(model.num_qubits == expected,
                               f"{inst.path.name}: {model.num_qubits} qubits, expected {expected}")

    def _sample(self, result, model, cfg):
        self.counts["reads"] += cfg.num_reads
        self.counts["spin_updates"] += cfg.num_reads * cfg.sweeps * model.num_qubits

    def _decode_all(self, decoded, records, layout, cnf):
        # On srt-files the `sample` and `metrics` commands both decode the same
        # records, which doubles the tallies but leaves their ratios unchanged.
        inst = self._instance(cnf)
        if inst is None:
            return
        projections = Counter()
        mismatched = 0
        for record, solution in zip(records, decoded):
            bits = [False] * inst.num_vars
            for var, q in layout.var_to_qubit.items():
                bits[var - 1] = record.spins[q] > 0
            bits = tuple(bits)
            projections[bits] += 1
            mismatched += solution is not None and solution != bits
        found = {s for s in decoded if s is not None}
        own_satisfying = sum(c for bits, c in projections.items() if oracle.satisfies(inst.clauses, bits))
        name = inst.path.name
        self.session.check(len(decoded) == len(records), f"{name}: decode_all dropped records")
        self.session.check(mismatched == 0, f"{name}: {mismatched} decoded solutions differ from their spins")
        self.session.check(all(oracle.satisfies(inst.clauses, s) for s in found),
                           f"{name}: a decoded solution violates the CNF")
        satisfying = sum(s is not None for s in decoded)
        self.session.check(own_satisfying == satisfying,
                           f"{name}: {satisfying} reads decoded, {own_satisfying} satisfy the CNF")
        self.counts["decoded_reads"] += len(decoded)
        self.counts["satisfying_reads"] += satisfying
        self.counts["distinct_solutions"] += len(found)

    def _enumerate_all(self, result, cnf, *_):
        inst = self._instance(cnf)
        self.counts["solutions"] += len(result.events)
        self.counts["enumerate_setup_us"] += result.setup_time_us
        if inst is None:
            return
        name = inst.path.name
        found = set(result.assignments())
        self.session.check(result.complete, f"{name}: enumeration incomplete")
        self.session.check(len(found) == len(result.events), f"{name}: enumeration repeats a solution")
        if inst.num_vars <= TRUTH_TABLE_MAX_VARS:
            self.session.check(found == oracle.truth_table(inst.num_vars, inst.clauses),
                               f"{name}: ALL-SAT set != truth table")
        else:
            self.session.check(all(oracle.satisfies(inst.clauses, a) for a in found),
                               f"{name}: an ALL-SAT solution violates the CNF")
            self.session.check(len(found) == inst.count,
                               f"{name}: {len(found)} solutions, set-up counted {inst.count}")

    def _summarize_instance(self, report, runs, *_):
        self.counts["summarized_records"] += sum(len(run) for run in runs)
