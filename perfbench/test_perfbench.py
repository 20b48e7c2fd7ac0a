"""Tests of the benchmark itself: span arithmetic, the percentile rule, the
independent checker, and a minimal-size run of every workload."""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from cascor import allsat
from cascor.sat import Cnf
from perfbench import oracle, run, speed, tracing, workloads
from perfbench.tracing import Span
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(id, name, parent, start, end):
    return Span(id, name, parent, start, end, "g")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "cli.main", None, 0, 100),
        _span(1, "samplers.sample_with_srt_rotation", 0, 10, 40),
        _span(2, "samplers.sample", 1, 15, 25),
        _span(3, "metrics.summarize_instance", 0, 50, 90),
        _span(4, "samplers.decode_all", 3, 60, 70),
    ]
    assert tracing.self_ns(spans) == {0: 30, 1: 20, 2: 10, 3: 30, 4: 10}
    assert tracing.layer_self_ns(spans) == {"cli": 30, "samplers": 40, "metrics": 30}
    assert sum(tracing.layer_self_ns(spans).values()) == 100
    assert tracing.total_ns(spans, "samplers.sample") == 10
    assert tracing.overhead_ns(spans, "samplers.sample_with_srt_rotation", "samplers.sample") == 20


def test_tracer_records_nesting_and_restores_attributes():
    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    original = Layer.inner
    tracer = tracing.Tracer()
    tracer.group = "p"
    with tracing.patched([(Layer, "outer", "a.outer"), (Layer, "inner", "b.inner")], tracer.wrap):
        assert Layer.outer(3) == 7
    assert Layer.inner is original
    outer, = [s for s in tracer.spans if s.name == "a.outer"]
    inner, = [s for s in tracer.spans if s.name == "b.inner"]
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert tracer.in_group("p") == tracer.spans


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for count in range(1, 400):
        pct = run.tail_percentile(count)
        if count <= 10:
            assert pct is None
            continue
        beyond = lambda p: count - math.ceil(p * count / 100)  # noqa: E731
        assert beyond(pct) >= 10
        assert pct == 99 or beyond(pct + 1) < 10


def test_tail_percentile_examples():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.percentile(list(range(1, 101)), 90) == 90
    metrics = run.latency_metrics("x_s", [float(v) for v in range(40)])
    assert set(metrics) == {"x_s.p50", "x_s.count", "x_s.p75"}


def _brute_force(num_vars, clauses):
    return {
        bits
        for bits in itertools.product((False, True), repeat=num_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses)
    }


def test_checker_matches_brute_force_on_tiny_cnfs():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 7)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(0, 9))
        ]
        truth = _brute_force(n, clauses)
        assert oracle.truth_table(n, clauses) == truth
        assert {a for a in truth if oracle.satisfies(clauses, a)} == truth
        relabeled = oracle.isomorph(n, clauses, rng)
        assert len(oracle.truth_table(n, relabeled)) == len(truth)
        assert oracle.qubit_count(relabeled) == oracle.qubit_count(clauses)
        assert oracle.parse_dimacs(oracle.emit_dimacs(n, clauses)) == (n, clauses)


def test_checker_agrees_with_allsat_on_unused_variable_cnf():
    # Variable 4 occurs in no clause: both values of it are solutions.
    clauses = [(1, 2), (-1, 3)]
    found = set(allsat.enumerate_all(Cnf.of(4, clauses), cap=100).assignments())
    assert found == oracle.truth_table(4, clauses) == _brute_force(4, clauses)
    assert len(found) == 8 and oracle.used_vars(clauses) == [1, 2, 3]


def _smoke(wl):
    flags = ("--reads", "64", "--sweeps", "5")
    if wl.kind == "files":
        flags += ("--gauges", "2")
    family = replace(wl.family, n=8, m=8, cap=256, size=2, min_count=1)
    return replace(wl, family=family, flags=flags)


def test_gauge_scales_by_the_mean_of_the_bracketing_reference_runs():
    gauge = speed.Gauge()
    gauge.samples = [speed.REFERENCE_S / 2, speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert gauge.scale() == pytest.approx(0.5)
    gauge.samples = gauge.samples[:2]
    assert gauge.scale() == pytest.approx(4 / 3)


def _metric_names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_run_of_each_workload(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_SECONDS", 0.0)
    wl = _smoke(WORKLOADS[name])
    r = run.run_workload(wl, seed=3, seconds=0, trace=trace, work=tmp_path)
    assert r["session"].failures == []
    gated, _ = (run.per_layer if trace else run.end_to_end)(wl, r)
    assert set(gated) == _metric_names("per_layer" if trace else "end_to_end")
    assert all(isinstance(v, (int, float)) for v, _ in gated.values())
    if not trace:
        assert gated["pipeline_s"][0] > 0 and gated["setup_s"][0] > 0
        assert len(r["reference_s"]) == len(r["setup_s"]) + len(r["scaled_s"]) + 2


def test_failed_check_is_counted(tmp_path, monkeypatch):
    real = allsat.enumerate_all

    def drops_one(cnf, *args, **kwargs):
        result = real(cnf, *args, **kwargs)
        return replace(result, events=result.events[:-1])

    monkeypatch.setattr(allsat, "enumerate_all", drops_one)
    monkeypatch.setattr(workloads, "SETUP_MIN_SECONDS", 0.0)
    wl = _smoke(WORKLOADS["crossover"])
    r = run.run_workload(wl, seed=3, seconds=0, trace=False, work=tmp_path)
    assert any("truth table" in f for f in r["session"].failures)
