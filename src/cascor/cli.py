"""Command-line pipeline: gen, compile, sample, allsat, metrics, bench.

Exit codes: 0 success, 1 usage error, 2 input error, 3 resource/limit error.
All emitted durations are integer microseconds.  Outputs are byte-stable for
fixed inputs, flags, and seeds, except classical-enumeration timestamps;
``--stable-output`` substitutes ordinal pseudo-times for those (1 us per
solution, in both allsat and bench) so CI can diff complete outputs.
"""
from __future__ import annotations

import argparse
import csv
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
from .compiler import AllocationError, ConstructionPolicy, compile_cnf, compiled_from_json, compiled_to_json
from .sat import (
    Cnf,
    GenerationError,
    MixedSatSpec,
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

    Only that code runs inside; the same classes raised by the pipeline itself
    are internal faults and propagate unchanged.
    """
    try:
        yield
    except (KeyError, ValueError) as exc:
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


def _read_cnf(path: str | Path) -> Cnf:
    return parse_dimacs(Path(path).read_text())


def _read_compilable_cnf(path: str | Path) -> Cnf:
    cnf = _read_cnf(path)
    if not cnf.clauses:
        raise ValueError("cannot compile a CNF with no clauses")
    return cnf


def _read_compiled(path: str):
    return compiled_from_json(json.loads(Path(path).read_text()))


def _sampler_config(args) -> samplers_mod.SamplerConfig:
    return samplers_mod.SamplerConfig(
        num_reads=args.reads,
        sweeps=args.sweeps,
        beta_start=args.beta_start,
        beta_end=args.beta_end,
        seed=args.seed,
        core_time_per_read_us=args.core_time_us,
        overhead=samplers_mod.OverheadModel(
            programming_us=args.programming_us,
            per_read_readout_us=args.readout_us,
            post_us=args.post_us,
        ),
    )


def _add_sampler_flags(sub) -> None:
    sub.add_argument("--reads", type=int, default=1000)
    sub.add_argument("--sweeps", type=int, default=100)
    sub.add_argument("--beta-start", type=float, default=0.1)
    sub.add_argument("--beta-end", type=float, default=5.0)
    sub.add_argument("--core-time-us", type=int, default=20)
    sub.add_argument("--programming-us", type=int, default=0)
    sub.add_argument("--readout-us", type=int, default=0)
    sub.add_argument("--post-us", type=int, default=0)
    sub.add_argument("--gauges", type=int, default=0,
                     help="number of spin-reversal gauge streams (0 = plain run)")


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
    cnf, count = generate_mixed_sat(spec, max_attempts=args.attempts)
    out = Path(args.out)
    out.write_text(emit_dimacs(cnf))
    sidecar = out.with_suffix(out.suffix + ".json")
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
        cnf = _read_cnf(args.cnf)
        model, layout, _ = _read_compiled(args.model)
        cfg = _sampler_config(args)
    runs = _sample_runs(model, cfg, args.gauges)
    decoded = [samplers_mod.decode_all(batch, layout, cnf) for batch in runs]
    Path(args.out).write_text(samplers_mod.samples_to_jsonl(runs, decoded, gauged=args.gauges > 0))
    solutions = sum(solution is not None for run in decoded for solution in run)
    print(f"wrote {args.out} ({sum(map(len, runs))} reads, {solutions} satisfying)")
    return EXIT_OK


def _stabilized_events(events):
    # Ordinal pseudo-times (1 us per solution) stand in for the real clock.
    return [replace(e, wall_time_us=e.index) for e in events]


def cmd_allsat(args) -> int:
    with _input_boundary():
        cnf = _read_cnf(args.cnf)
        allsat_mod.check_enumeration(cnf.num_vars, args.cap)
    result = allsat_mod.enumerate_all(cnf, cap=args.cap, time_budget_us=args.time_budget_us)
    events = _stabilized_events(result.events) if args.stable_output else result.events
    Path(args.out).write_text(allsat_mod.events_to_jsonl(events))
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
        cnf = _read_cnf(args.cnf)
        model, layout, _ = _read_compiled(args.model)
        runs = samplers_mod.samples_from_jsonl(Path(args.samples).read_text(), model.num_qubits)
        events = allsat_mod.events_from_jsonl(Path(args.events).read_text(), cnf.num_vars)
    report = metrics_mod.summarize_instance(
        runs, events, layout, cnf, instance_id=args.instance_id
    )
    Path(args.out).write_text(report.to_json_text() + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _bench_one(path: Path, cfg, policy, args) -> tuple[str, dict, list[dict]]:
    with _input_boundary():
        cnf = _read_compilable_cnf(path)
        allsat_mod.check_enumeration(cnf.num_vars, args.cap)
    model, layout = compile_cnf(cnf, policy)
    runs = _sample_runs(model, cfg, args.gauges)
    result = allsat_mod.enumerate_all(cnf, cap=args.cap, time_budget_us=args.time_budget_us)
    events = _stabilized_events(result.events) if args.stable_output else list(result.events)
    report = metrics_mod.summarize_instance(runs, events, layout, cnf, instance_id=path.stem)
    return path.stem, report.to_json(), metrics_mod.report_csv_rows(report)


def _worker_count(num_tasks: int) -> int:
    """Bench workers: THREADS_ENV (else the CPU count), clamped to [1, num_tasks]."""
    env = os.environ.get(THREADS_ENV, "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, not {env!r}") from None
    return max(1, min(cap, num_tasks))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_bench(args) -> int:
    instance_paths = sorted(Path(args.instances).glob("*.cnf"))
    if not instance_paths:
        raise FileNotFoundError(f"no .cnf instances under {args.instances}")
    n = len(instance_paths)
    with _input_boundary():
        cfg = _sampler_config(args)
        policy = ConstructionPolicy(args.policy, args.policy_seed)
        workers = _worker_count(n)
    # Per-instance seeds derive from the master seed and sorted position.
    jobs = (
        instance_paths,
        [replace(cfg, seed=args.seed + idx) for idx in range(n)],
        [policy] * n,
        [args] * n,
    )
    if workers == 1:
        results = list(map(_bench_one, *jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_one, *jobs))

    rows: list[dict] = []
    for _, _, instance_rows in results:
        rows.extend(instance_rows)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(metrics_mod.CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in metrics_mod.CSV_COLUMNS])

    if args.reports_dir:
        reports_dir = Path(args.reports_dir)
        reports_dir.mkdir(parents=True, exist_ok=True)
        for instance_id, report_doc, _ in results:
            (reports_dir / f"{instance_id}.report.json").write_text(
                json.dumps(report_doc, sort_keys=True) + "\n"
            )
    print(f"wrote {args.out} ({len(rows)} rows over {len(results)} instances)")
    return EXIT_OK


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
    comp.add_argument("--policy", choices=["chain", "balanced", "seeded_random"], default="chain")
    comp.add_argument("--policy-seed", type=int, default=None)
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
    ben.add_argument("--policy", choices=["chain", "balanced", "seeded_random"], default="chain")
    ben.add_argument("--policy-seed", type=int, default=None)
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
        return args.func(args)
    except (GenerationError, AllocationError) as exc:
        print(f"cascor: limit error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (InputError, FileNotFoundError) as exc:
        print(f"cascor: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
