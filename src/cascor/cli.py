"""Command-line pipeline: gen, compile, sample, allsat, metrics, bench.

Exit codes: 0 success, 1 usage error, 2 input error, 3 resource/limit error.
Every command refuses an --out whose directory does not exist or that names a
directory (exit 2) before any work.  A fault inside the pipeline propagates with
its traceback; it is never reported as an input error.
All emitted durations are integer microseconds.  Outputs are byte-stable for
fixed inputs, flags, and seeds, except classical-enumeration timestamps;
``--stable-output`` substitutes ordinal pseudo-times for those (1 us per
solution, in both allsat and bench) so CI can diff complete outputs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import allsat as allsat_mod
from . import metrics as metrics_mod
from . import samplers as samplers_mod
from .compiler import ConstructionPolicy, compile_cnf, compiled_from_json, compiled_to_json
from .compiler import _layout_and_values
from .sat import _code_words, _falsified
from .sat import (
    Cnf,
    LimitError,
    MixedSatSpec,
    _derived_seed,
    emit_dimacs,
    generate_mixed_sat,
    parse_dimacs,
)

THREADS_ENV = "CASCOR_THREADS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


class InputError(Exception):
    """A malformed input file or a flag value the pipeline cannot take."""


@contextmanager
def _input_boundary():
    """Report KeyError/ValueError from parsing, reading or flag-to-config code as InputError.

    OSError from reading an input file (a directory, say, or one without read
    permission) is an InputError too, and so is an output path that
    _check_out_dir refuses: main checks --out in one before the command runs,
    and gen and bench check their other output files in theirs before any work.
    Only that code runs inside, and output files are written outside; the same
    classes raised by the pipeline itself are internal faults and propagate
    unchanged.  main catches InputError and LimitError and nothing else.
    """
    try:
        yield
    except (KeyError, ValueError, OSError) as exc:
        raise InputError(exc) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_lengths(text: str) -> dict[int, float]:
    weights: dict[int, float] = {}
    for part in text.split(","):
        k, _, w = part.partition(":")
        weights[int(k)] = float(w) if w else 1.0
    return weights


def _check_out_dir(path: str | Path) -> None:
    """FileNotFoundError unless the directory an output path names exists, and
    IsADirectoryError if the path names a directory itself."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise FileNotFoundError(f"no directory {str(directory)!r} to write {str(path)!r} in")
    if Path(path).is_dir():
        raise IsADirectoryError(f"output path {str(path)!r} is a directory")


def _read_cnf(path: str | Path) -> Cnf:
    return parse_dimacs(Path(path).read_text())


def _read_compilable_cnf(path: str | Path) -> Cnf:
    cnf = _read_cnf(path)
    if not cnf.clauses:
        raise ValueError("cannot compile a CNF with no clauses")
    return cnf


def _read_compiled(path: str, cnf: Cnf):
    """The model at path and the layout compile_cnf gives cnf under the file's policy;
    ValueError unless the file holds that layout and each value f is s times the compiled
    value c, |f - s c| <= 4 eps |f|, where s > 0 is the ratio of the ground_bounds.  A
    KeyError or ValueError from compiling cnf is cascor's own fault, raised as RuntimeError."""
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError:  # nesting deeper than the interpreter's recursion limit
        raise ValueError(f"model file {path} nests too deeply") from None
    model, policy = compiled_from_json(doc)
    try:  # cnf parsed and has clauses, so no input can make this compile fail
        _, layout = compiled = compile_cnf(cnf, policy)
        own_text, own = _layout_and_values(compiled_to_json(*compiled, policy))
    except (KeyError, ValueError) as exc:
        raise RuntimeError(f"compiling the CNF under the model file's policy: {exc!r}") from exc
    text, values = _layout_and_values(doc)
    if text != own_text:
        raise ValueError(f"model qubit layout is not the {policy.kind} policy's for the CNF")
    scale, eps = values[-1] / own[-1], sys.float_info.epsilon
    if len(values) != len(own) or not scale > 0 or not all(
            abs(f - scale * c) <= 4 * eps * abs(f) for f, c in zip(values, own)):
        raise ValueError("model values are not one positive factor times the CNF's compiled ones")
    return model, layout


def _read_events(path: str, cnf: Cnf) -> list:
    """The events at path; ValueError naming the first event that does not satisfy cnf."""
    events = allsat_mod.events_from_jsonl(Path(path).read_text(), cnf.num_vars)
    codes = _code_words([e.code for e in events], len(events), cnf.num_vars, "event codes")
    falsified = _falsified(codes, cnf.masks)
    if falsified.any():
        raise ValueError(f"event {events[falsified.argmax()].index} does not satisfy the CNF")
    return events


def _sampler_config(args) -> samplers_mod.SamplerConfig:
    """The flags' SamplerConfig; ValueError for a value it or --gauges cannot take."""
    if args.gauges < 0:
        raise ValueError(f"--gauges must be >= 0, not {args.gauges}")
    return samplers_mod.SamplerConfig(
        num_reads=args.reads,
        sweeps=args.sweeps,
        beta_start=args.beta_start,
        beta_end=args.beta_end,
        seed=args.seed,
        core_time_per_read_us=args.core_time_us,
        programming_us=args.programming_us,
        per_read_readout_us=args.readout_us,
    )


def _add_sampler_flags(sub) -> None:
    config = samplers_mod.SamplerConfig
    sub.add_argument("--reads", type=int, default=config.num_reads)
    sub.add_argument("--sweeps", type=int, default=config.sweeps)
    sub.add_argument("--beta-start", type=float, default=config.beta_start)
    sub.add_argument("--beta-end", type=float, default=config.beta_end)
    sub.add_argument("--core-time-us", type=int, default=config.core_time_per_read_us)
    sub.add_argument("--programming-us", type=int, default=config.programming_us)
    sub.add_argument("--readout-us", type=int, default=config.per_read_readout_us)
    sub.add_argument("--gauges", type=int, default=0,
                     help="number of spin-reversal gauge streams (0 = plain run)")


def _add_policy_flags(sub) -> None:
    sub.add_argument("--policy", choices=ConstructionPolicy.KINDS, default="chain")
    sub.add_argument("--policy-seed", type=int, default=None)


def cmd_gen(args) -> int:
    with _input_boundary():
        spec = MixedSatSpec(
            num_vars=args.n,
            num_clauses=args.m,
            length_weights=_parse_lengths(args.lengths),
            seed=args.seed,
            solution_cap=args.cap,
        )
        allsat_mod.check_enumeration(spec.num_vars, spec.solution_cap)
        if args.attempts < 1:
            raise ValueError(f"--attempts must be >= 1, not {args.attempts}")
        out = Path(args.out)
        sidecar = out.with_suffix(out.suffix + ".json")
        _check_out_dir(sidecar)
    cnf, count = generate_mixed_sat(spec, max_attempts=args.attempts)
    out.write_text(emit_dimacs(cnf))
    sidecar.write_text(
        json.dumps({"spec": spec.to_json(), "solution_count": count}, sort_keys=True) + "\n"
    )
    print(f"wrote {out} (n={cnf.num_vars} m={len(cnf.clauses)} solutions={count})")
    return EXIT_OK


def cmd_compile(args) -> int:
    with _input_boundary():
        cnf = _read_compilable_cnf(args.cnf)
        policy = ConstructionPolicy(args.policy, args.policy_seed)
    model, layout = compile_cnf(cnf, policy)
    doc = compiled_to_json(model, layout, policy)
    Path(args.out).write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(
        f"wrote {args.out} (qubits={model.num_qubits} "
        f"ground_bound={layout.ground_bound} policy={policy.kind})"
    )
    return EXIT_OK


def _sample_runs(model, cfg, num_gauges):
    if num_gauges > 0:
        gauges = samplers_mod.random_gauges(model.num_qubits, num_gauges, cfg.seed)
        return samplers_mod.sample_with_srt_rotation(model, cfg, gauges)
    return [samplers_mod.sample(model, cfg)]


def cmd_sample(args) -> int:
    with _input_boundary():
        cnf = _read_compilable_cnf(args.cnf)
        cfg = _sampler_config(args)
        model, layout = _read_compiled(args.model, cnf)
    # every run's spins and decoded bits are held at once, so they share one run's
    # limit; both are checked before the first anneal, the spins first, as sampling
    # would, and then the schedule that sampling checks next
    rows = cfg.num_reads * max(args.gauges, 1)
    samplers_mod._check_run_size(rows, model.num_qubits,
                                 "spins of every gauge" if args.gauges else "spins")
    samplers_mod._check_run_size(rows, cnf.num_vars, "decoded bits of every run")
    samplers_mod._check_run_size(cfg.sweeps, 8, "anneal schedule")
    cnf.masks  # decode_all's clause masks, built (or refused) before the first anneal
    runs = _sample_runs(model, cfg, args.gauges)
    decoded = [samplers_mod.decode_all(batch, layout, cnf) for batch in runs]
    Path(args.out).write_bytes(samplers_mod.samples_to_jsonl(
        model, runs, decoded, gauged=args.gauges > 0))
    solutions = sum(len(run) - run.count(None) for run in decoded)
    print(f"wrote {args.out} ({sum(map(len, runs))} reads, {solutions} satisfying)")
    return EXIT_OK


def _stabilized_events(events):
    # Ordinal pseudo-times (1 us per solution) stand in for the real clock.
    return [allsat_mod.SolutionEvent(e.index, e.index, e.code) for e in events]


def cmd_allsat(args) -> int:
    with _input_boundary():
        cnf = _read_cnf(args.cnf)
        allsat_mod.check_enumeration(cnf.num_vars, args.cap, args.time_budget_us)
    result = allsat_mod.enumerate_all(cnf, cap=args.cap, time_budget_us=args.time_budget_us)
    events = _stabilized_events(result.events) if args.stable_output else result.events
    Path(args.out).write_text(allsat_mod.events_to_jsonl(events, cnf.num_vars))
    summary = {
        "count": len(result.events),
        "complete": result.complete,
        "cap_hit": result.cap_hit,
        "setup_time_us": 0 if args.stable_output else result.setup_time_us,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_metrics(args) -> int:
    with _input_boundary():
        cnf = _read_compilable_cnf(args.cnf)
        model, layout = _read_compiled(args.model, cnf)
        runs = samplers_mod.samples_from_jsonl(Path(args.samples).read_bytes(), model.num_qubits)
        events = _read_events(args.events, cnf)
    report = metrics_mod.summarize_instance(
        runs, events, layout, cnf, instance_id=args.instance_id
    )
    Path(args.out).write_text(report.to_json_text() + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _bench_one(cnf: Cnf, instance_id: str, cfg, policy, args) -> metrics_mod.InstanceReport:
    model, layout = compile_cnf(cnf, policy)
    runs = _sample_runs(model, cfg, args.gauges)
    result = allsat_mod.enumerate_all(cnf, cap=args.cap, time_budget_us=args.time_budget_us)
    events = _stabilized_events(result.events) if args.stable_output else list(result.events)
    return metrics_mod.summarize_instance(runs, events, layout, cnf, instance_id=instance_id)


def _worker_count(num_tasks: int) -> int:
    """Bench workers: THREADS_ENV (else the CPU count), clamped to [1, num_tasks]."""
    env = os.environ.get(THREADS_ENV, "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, not {env!r}") from None
    return max(1, min(cap, num_tasks))


def cmd_bench(args) -> int:
    with _input_boundary():
        instance_paths = sorted(Path(args.instances).glob("*.cnf"))
        if not instance_paths:
            raise FileNotFoundError(f"no .cnf instances under {args.instances}")
        n = len(instance_paths)
        cfg = _sampler_config(args)
        policy = ConstructionPolicy(args.policy, args.policy_seed)
        # every instance, and the cap and budget on the widest, before any anneal or worker
        cnfs = [_read_compilable_cnf(path) for path in instance_paths]
        allsat_mod.check_enumeration(max(cnf.num_vars for cnf in cnfs), args.cap,
                                     args.time_budget_us)
        workers = _worker_count(n)
        if args.reports_dir:
            reports_dir = Path(args.reports_dir)
            reports_dir.mkdir(parents=True, exist_ok=True)
            for path in instance_paths:
                _check_out_dir(reports_dir / f"{path.stem}.report.json")
    samplers_mod._check_run_size(cfg.sweeps, 8, "anneal schedule")
    # Instance idx (in sorted order) samples on stream idx of the master seed.
    jobs = (
        cnfs,
        [path.stem for path in instance_paths],
        [replace(cfg, seed=_derived_seed(args.seed, idx)) for idx in range(n)],
        [policy] * n,
        [args] * n,
    )
    if workers == 1:
        reports = list(map(_bench_one, *jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_bench_one, *jobs))

    Path(args.out).write_text(metrics_mod.reports_csv_text(reports), newline="")
    if args.reports_dir:
        for report in reports:
            (reports_dir / f"{report.instance_id}.report.json").write_text(
                report.to_json_text() + "\n"
            )
    print(f"wrote {args.out} ({len(metrics_mod.CROSSOVER_AXES) * n} rows over {n} instances)")
    return EXIT_OK


@functools.cache  # parse_args keeps no state in the parser, so one tree serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="cascor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random mixed-SAT instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--lengths", required=True, help="length weights, e.g. 2:1,3:2,4:1")
    gen.add_argument("--cap", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--attempts", type=int, default=1000)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    comp = sub.add_parser("compile", help="compile DIMACS CNF to an Ising penalty model")
    comp.add_argument("--cnf", required=True)
    _add_policy_flags(comp)
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_compile)

    smp = sub.add_parser("sample", help="draw annealed samples from a compiled model")
    smp.add_argument("--model", required=True)
    smp.add_argument("--cnf", required=True)
    smp.add_argument("--seed", type=int, required=True)
    _add_sampler_flags(smp)
    smp.add_argument("--out", required=True)
    smp.set_defaults(func=cmd_sample)

    als = sub.add_parser("allsat", help="enumerate all satisfying assignments")
    als.add_argument("--cnf", required=True)
    als.add_argument("--cap", type=int, default=1_000_000)
    als.add_argument("--time-budget-us", type=int, default=None)
    als.add_argument("--stable-output", action="store_true")
    als.add_argument("--out", required=True)
    als.set_defaults(func=cmd_allsat)

    met = sub.add_parser("metrics", help="summarize stored sample/enumeration outputs")
    met.add_argument("--cnf", required=True)
    met.add_argument("--model", required=True)
    met.add_argument("--samples", required=True)
    met.add_argument("--events", required=True)
    met.add_argument("--instance-id", default="")
    met.add_argument("--out", required=True)
    met.set_defaults(func=cmd_metrics)

    ben = sub.add_parser("bench", help="full pipeline over a directory of instances")
    ben.add_argument("--instances", required=True)
    ben.add_argument("--seed", type=int, required=True)
    _add_policy_flags(ben)
    _add_sampler_flags(ben)
    ben.add_argument("--cap", type=int, default=1_000_000)
    ben.add_argument("--time-budget-us", type=int, default=None)
    ben.add_argument("--stable-output", action="store_true")
    ben.add_argument("--reports-dir", default=None)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _input_boundary():
            _check_out_dir(args.out)  # every subcommand requires --out
        return args.func(args)
    except LimitError as exc:
        print(f"cascor: limit error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InputError as exc:
        print(f"cascor: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
