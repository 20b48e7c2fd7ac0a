"""Run one cascor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crossover --seed 1 --seconds 10 --trace 0

Run from the root of a cascor checkout; cascor is imported from ``src/``.
Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Results and spans are written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    if count <= 10:
        return None
    return 100 * (count - 10) // count


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def latency_metrics(name: str, samples: list[float]) -> dict:
    out = {f"{name}.p50": (median(samples), "s"), f"{name}.count": (len(samples), "count")}
    pct = tail_percentile(len(samples))
    if pct is not None:
        out[f"{name}.p{pct}"] = (percentile(samples, pct), "s")
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cascor_threads": os.environ.get("CASCOR_THREADS"),
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def import_cascor():
    """Import cascor from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import cascor

    expected = (ROOT / "src" / "cascor").resolve()
    if Path(cascor.__file__).resolve().parent != expected:
        raise ImportError(f"cascor imported from {cascor.__file__}, not {expected}")


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the checked warm-up pass, then time passes for ``seconds``."""
    from perfbench import speed, tracing
    from perfbench.workloads import (
        SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, TRACE_POINTS, Observer, Session, coverage, run_pass, setup,
    )

    os.environ["CASCOR_THREADS"] = "1"  # every workload runs `bench` on one worker
    session = Session()
    tracer = tracing.Tracer()

    def traced(group):
        tracer.group = group
        return tracing.patched(TRACE_POINTS, tracer.wrap)

    # With --trace 0 every set-up and timed pass is bracketed by reference
    # runs (see speed.py), which also count against --seconds.
    gauge = speed.Gauge()
    setup_wall, setup_s = [], []
    if trace:
        with traced("setup"):
            start = time.perf_counter()
            inst = setup(session, wl, seed, work / "setup")
        setup_wall.append(time.perf_counter() - start)
    else:
        gauge.mark()
    setup_end = time.perf_counter() + SETUP_MIN_SECONDS
    while not trace and (len(setup_wall) < SETUP_MIN_REPEATS or time.perf_counter() < setup_end):
        start = time.perf_counter()
        inst = setup(session, wl, seed, work / "setup")
        setup_wall.append(time.perf_counter() - start)
        gauge.mark()
        setup_s.append(setup_wall[-1] * gauge.scale())

    observer = Observer(session, inst)
    with tracing.patched(Observer.POINTS, observer.wrap):
        reference = run_pass(session, wl, inst, work / "pass", check=True)
    quantum, classical = coverage(wl, work / "pass")

    plain, scaled, with_spans, digests = [], [], [], []
    session.record_latency = not trace
    deadline = time.perf_counter() + seconds
    if not trace:
        gauge.mark()
    while not plain or time.perf_counter() < deadline:
        start = time.perf_counter()
        digests.append(run_pass(session, wl, inst, work / "pass"))
        plain.append(time.perf_counter() - start)
        if trace:
            group = f"pass{len(with_spans)}"
            with traced(group):
                start = time.perf_counter()
                digests.append(run_pass(session, wl, inst, work / "pass"))
            with_spans.append((group, time.perf_counter() - start))
        else:
            gauge.mark()
            scaled.append(plain[-1] * gauge.scale())
    session.record_latency = False
    for digest in digests:
        session.check(digest == reference, "--stable-output pass differs from the first pass")

    return {
        "session": session,
        "tracer": tracer,
        "inst": inst,
        "counts": observer.counts,
        "setup_wall_s": setup_wall,
        "setup_s": setup_s,
        "plain_s": plain,
        "scaled_s": scaled,
        "reference_s": gauge.samples,
        "traced": with_spans,
        "coverage": (quantum, classical),
    }


def end_to_end(wl, r) -> tuple[dict, dict]:
    """(gated metrics, further metrics printed alongside them)."""
    quantum, classical = r["coverage"]
    gated = {
        "setup_s": (median(r["setup_s"]), "s"),
        "pipeline_s": (median(r["scaled_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Not gated: it is exact per seed, but on `enumerate` it moves about 10%
    # between seeds, more than any bound allows.
    extra = {
        "coverage_frac": (quantum / classical if classical else 0.0, "frac"),
        "setup_wall_s": (median(r["setup_wall_s"]), "s"),
        "pipeline_wall_s": (median(r["plain_s"]), "s"),
        "reference_s": (median(r["reference_s"]), "s"),
        "setup_s.repeats": (len(r["setup_s"]), "count"),
        "pipeline_s.passes": (len(r["scaled_s"]), "count"),
    }
    if len(r["scaled_s"]) > 1:
        q1, _, q3 = statistics.quantiles(r["scaled_s"], n=4)
        extra["pipeline_s.iqr"] = (q3 - q1, "s")
    for command in ("sample", "metrics"):
        samples = r["session"].latency.get(command)
        if samples:
            extra.update(latency_metrics(f"{command}_cmd_s", samples))
    return gated, extra


LAYERS = ("cli", "sat", "compiler", "samplers", "allsat", "metrics", "ising")

# Span totals reported per pass, by span name.
_SPAN_TOTALS = ("samplers.sample", "samplers.decode_all", "allsat.enumerate_all",
                "metrics.summarize_instance", "compiler.compile_cnf", "sat.parse_dimacs",
                "ising.enumerate_ground_states", "ising.apply_gauge")


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _pass_row(spans, wall_s) -> dict:
    """Seconds per layer (self time) and per span name, and shares of the pass."""
    from perfbench import tracing

    own = tracing.layer_self_ns(spans)
    row = {"wall": wall_s}
    for layer in LAYERS:
        row[f"{layer}.self"] = own.get(layer, 0) / 1e9
        row[f"{layer}.share"] = row[f"{layer}.self"] / wall_s
    row["harness.share"] = 1 - sum(row[f"{layer}.share"] for layer in LAYERS)
    for name in _SPAN_TOTALS:
        row[name] = tracing.total_ns(spans, name) / 1e9
    row["srt_overhead"] = tracing.overhead_ns(
        spans, "samplers.sample_with_srt_rotation", "samplers.sample") / 1e9
    return row


def per_layer(wl, r) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced passes, counts from the checked pass."""
    from perfbench import oracle, tracing

    tracer, counts = r["tracer"], r["counts"]
    rows = [_pass_row(tracer.in_group(group), wall_s) for group, wall_s in r["traced"]]
    m = {key: median(row[key] for row in rows) for key in rows[0]}
    setup_spans = tracer.in_group("setup")
    setup_own = tracing.layer_self_ns(setup_spans)
    setup_wall = r["setup_wall_s"][0]

    gated = {
        "cli.self_s": (m["cli.self"], "s"),
        "sat.parse_s": (m["sat.parse_dimacs"], "s"),
        "sat.generate_s": (tracing.total_ns(setup_spans, "sat.generate_mixed_sat") / 1e9, "s"),
        "compiler.compile_s": (m["compiler.compile_cnf"], "s"),
        "compiler.qubits": (counts["qubits"], "count"),
        "compiler.couplers": (counts["couplers"], "count"),
        "samplers.sample_s": (m["samplers.sample"], "s"),
        "samplers.spin_updates": (counts["spin_updates"], "count"),
        "samplers.spin_updates_per_s": (_rate(counts["spin_updates"], m["samplers.sample"]), "1/s"),
        "samplers.reads_per_s": (_rate(counts["reads"], m["samplers.sample"]), "1/s"),
        "samplers.decode_s": (m["samplers.decode_all"], "s"),
        "samplers.satisfying_frac": (_rate(counts["satisfying_reads"], counts["decoded_reads"]), "frac"),
        "samplers.distinct_frac": (_rate(counts["distinct_solutions"], counts["satisfying_reads"]), "frac"),
        "allsat.enumerate_s": (m["allsat.enumerate_all"], "s"),
        "allsat.solutions": (counts["solutions"], "count"),
        "allsat.solutions_per_s": (_rate(counts["solutions"], m["allsat.enumerate_all"]), "1/s"),
        "allsat.setup_us": (counts["enumerate_setup_us"], "us"),
        "metrics.summarize_s": (m["metrics.summarize_instance"], "s"),
        "metrics.records_per_s": (_rate(counts["summarized_records"], m["metrics.summarize_instance"]), "1/s"),
        "setup.allsat_share": (_rate(setup_own.get("allsat", 0) / 1e9, setup_wall), "frac"),
        "trace.overhead_s": (m["wall"] - median(r["plain_s"]), "s"),
    }
    for layer in LAYERS[:-1]:
        gated[f"{layer}.share"] = (m[f"{layer}.share"], "frac")
    extra = {
        "pipeline_s.traced": (m["wall"], "s"),
        "trace.passes": (len(rows), "count"),
        "harness.share": (m["harness.share"], "frac"),
        "setup.sat_share": (_rate(setup_own.get("sat", 0) / 1e9, setup_wall), "frac"),
    }
    if wl.kind == "files":
        # Only the file-based sequence runs SRT rotation and the ground-state oracle.
        oracle_states = sum(2 ** oracle.qubit_count(i.clauses) for i in r["inst"].instances)
        extra.update({
            "samplers.srt_overhead_s": (m["srt_overhead"], "s"),
            "ising.oracle_s": (m["ising.enumerate_ground_states"], "s"),
            "ising.oracle_states_per_s": (_rate(oracle_states, m["ising.enumerate_ground_states"]), "1/s"),
            "ising.gauge_s": (m["ising.apply_gauge"], "s"),
            "ising.share": (m["ising.share"], "frac"),
        })
    return gated, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_cascor()
    except ImportError as exc:
        print(f"perfbench: cannot import cascor from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{label}-{os.getpid()}"
    try:
        r = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gated, extra = (per_layer if args.trace else end_to_end)(wl, r)
    session, instances = r["session"], r["inst"].instances
    failed = len(session.failures)
    extra.update({
        "failed_frac": (failed / session.attempted, "frac"),
        "instances": (len(instances), "count"),
        "unused_var_instances": (sum(i.unused_vars > 0 for i in instances), "count"),
    })
    for failure in session.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    env = environment()
    print(f"# {label} {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in {**gated, **extra}.items():
        print(f"{name} {value!r} {unit}")
    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()},
    }
    detail = {**result, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "failures": session.failures,
              "setup_s": r["setup_s"], "setup_wall_s": r["setup_wall_s"],
              "pass_s": r["scaled_s"], "pass_wall_s": r["plain_s"], "reference_s": r["reference_s"],
              "traced_pass_s": [t for _, t in r["traced"]],
              "more_metrics": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()}}
    (OUT / f"{label}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if args.trace:
        r["tracer"].write_jsonl(OUT / f"{label}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
