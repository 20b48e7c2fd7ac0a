import argparse
import functools
import json
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascor._native as native_mod
import cascor.allsat as allsat_mod
import cascor.cli as cli
import cascor.ising as ising_mod
import cascor.metrics as metrics_mod
import cascor.samplers as samplers_mod
import cascor.sat as sat_mod
from cascor.cli import _worker_count, main
from cascor.compiler import ConstructionPolicy, compile_cnf, compiled_to_json
from cascor.ising import energies_of_states
from cascor.metrics import CSV_COLUMNS
from cascor.sat import Cnf, emit_dimacs, evaluate, parse_dimacs

from conftest import batch_of, brute_force_solutions


def run(*argv):
    return main(list(argv))


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name, in build_parser()'s order."""
    (action,) = (action for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return action.choices


def gen_instance(tmp_path, name="inst.cnf", n=6, m=5, seed=7, cap=64,
                 lengths="2:1,3:1"):
    path = tmp_path / name
    code = run(
        "gen", "--n", str(n), "--m", str(m), "--lengths", lengths,
        "--cap", str(cap), "--seed", str(seed), "--out", str(path),
    )
    assert code == 0
    return path


def test_gen_writes_dimacs_and_sidecar(tmp_path, capsys):
    path = gen_instance(tmp_path)
    cnf = parse_dimacs(path.read_text())
    assert cnf.num_vars == 6 and len(cnf.clauses) == 5
    sidecar = json.loads((tmp_path / "inst.cnf.json").read_text())
    assert sidecar["spec"]["num_vars"] == 6
    assert 1 <= sidecar["solution_count"] <= 64
    assert "solutions" in capsys.readouterr().out


def test_gen_deterministic(tmp_path):
    a = gen_instance(tmp_path, "a.cnf")
    b = gen_instance(tmp_path, "b.cnf")
    assert a.read_text() == b.read_text()


def test_gen_counts_each_draw_once(tmp_path, monkeypatch):
    # The count gen writes comes from the one screening count of its draw; at
    # n=6 the truth table is one word, so the enumerator never runs.
    calls = {"draw": 0, "count": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sat_mod, "_draw_instance", counted("draw", sat_mod._draw_instance))
    monkeypatch.setattr(allsat_mod, "count_solutions_capped",
                        counted("count", allsat_mod.count_solutions_capped))
    monkeypatch.setattr(allsat_mod, "enumerate_all", counted("enumerate", allsat_mod.enumerate_all))
    path = gen_instance(tmp_path, seed=12, cap=8)
    assert calls["draw"] > 1 and calls["count"] == calls["draw"] and calls["enumerate"] == 0
    sidecar = json.loads((tmp_path / "inst.cnf.json").read_text())
    assert sidecar["solution_count"] == len(brute_force_solutions(parse_dimacs(path.read_text())))


def test_gen_missing_weights_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("gen", "--n", "4", "--m", "2", "--cap", "8", "--seed", "1",
            "--out", str(tmp_path / "x.cnf"))
    assert info.value.code == 2


def test_gen_retry_exhaustion_exit_code(tmp_path):
    # cap=1 on an unconstrained family: a single width-2 clause always has
    # at least three solutions over two variables.
    code = run(
        "gen", "--n", "6", "--m", "1", "--lengths", "2:1", "--cap", "1",
        "--seed", "3", "--attempts", "25", "--out", str(tmp_path / "x.cnf"),
    )
    assert code == 3


@pytest.mark.parametrize("command, num_vars, flags", [
    ("sample", 2, ("--reads", 10**11)),  # 186 GiB of spins
    ("bench", 2, ("--reads", 10**11)),
    ("sample", 10**11, ("--reads", 1000)),  # 2 used variables; 931 GiB of decoded bits
    ("sample", 2, ("--sweeps", 10**12)),  # 14.6 TiB of schedule, two floats per sweep
    ("bench", 2, ("--sweeps", 10**12)),
], ids=["sample-reads", "bench-reads", "sample-unused-variables", "sample-sweeps",
        "bench-sweeps"])
def test_run_past_the_size_limit_is_limit_error(command, num_vars, flags, tmp_path, capsys,
                                                monkeypatch):
    # the size is checked before anything of it is allocated, so no ulimit is needed
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text(f"p cnf {num_vars} 1\n1 2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    inputs = {"sample": ["--model", str(model), "--cnf", str(cnf_path)],
              "bench": ["--instances", str(tmp_path)]}[command]
    capsys.readouterr()
    assert run(command, *inputs, "--seed", "1", *map(str, flags),
               "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "cascor: limit error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command, reader", [("sample", "_read_compiled"),
                                              ("sample", "_read_compilable_cnf"),
                                              ("bench", "_read_compilable_cnf")])
def test_schedule_past_the_size_limit_is_refused_as_the_flags_are_read(
        command, reader, tmp_path, capsys, monkeypatch):
    # SamplerConfig bounds its schedule when the flags build it: before sample reads
    # the CNF or the model, and before bench reads an instance or creates --reports-dir
    monkeypatch.setattr(cli, reader, lambda *args: pytest.fail("read an input"))
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    inputs = {"sample": ["--model", str(tmp_path / "m.json"), "--cnf", str(cnf_path)],
              "bench": ["--instances", str(tmp_path), "--reports-dir", str(tmp_path / "rep")]}
    capsys.readouterr()
    assert run(command, *inputs[command], "--seed", "1", "--sweeps", str(10**12),
               "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("cascor: limit error: anneal schedule") and "Traceback" not in err
    assert not (tmp_path / "rep").exists()


def test_sample_gauges_past_the_size_limit_is_limit_error(tmp_path, capsys, monkeypatch):
    # each run of 50 reads fits the patched limit, and so do the 50 gauges and the schedule
    # of 2 sweeps; their runs do not
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    monkeypatch.setattr(native_mod, "_RUN_BYTES", 1000)
    monkeypatch.setattr(samplers_mod, "sample", lambda *args: pytest.fail("sampled a run"))
    capsys.readouterr()
    out = tmp_path / "samples.jsonl"
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "50", "--sweeps", "2", "--gauges", "50", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "cascor: limit error: spins of every gauge" in err and "Traceback" not in err
    assert not out.exists()


def test_compile_writes_model_json(tmp_path):
    path = tmp_path / "tri.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "model.json"
    assert run("compile", "--cnf", str(path), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["num_qubits"] == 4
    assert doc["h"][3] == -3  # the cascade ancilla collects -3
    assert doc["ground_bound"] == -4
    assert doc["policy"] == {"kind": "chain"}


def test_compile_policies_share_ground_bound(tmp_path):
    path = tmp_path / "five.cnf"
    path.write_text("p cnf 5 1\n1 2 3 4 5 0\n")
    bounds = {}
    for policy in ("chain", "balanced"):
        out = tmp_path / f"{policy}.json"
        assert run("compile", "--cnf", str(path), "--policy", policy, "--out", str(out)) == 0
        bounds[policy] = json.loads(out.read_text())["ground_bound"]
    out = tmp_path / "random.json"
    assert run("compile", "--cnf", str(path), "--policy", "seeded_random",
               "--policy-seed", "5", "--out", str(out)) == 0
    bounds["seeded_random"] = json.loads(out.read_text())["ground_bound"]
    assert set(bounds.values()) == {-10}


def test_compile_empty_cnf_is_input_error(tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 3 0\n")
    assert run("compile", "--cnf", str(path), "--out", str(tmp_path / "m.json")) == 2


def test_compile_malformed_cnf_is_input_error(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n0\n")
    assert run("compile", "--cnf", str(path), "--out", str(tmp_path / "m.json")) == 2


def test_sample_decoded_bits_of_every_gauge_past_the_size_limit_is_limit_error(
        tmp_path, capsys, monkeypatch):
    # 2 qubits and 100 variables: the spins of 8 runs of 5 reads fit the patched
    # limit, and so do one run's decoded bits (5 x 108 bytes) and the schedule of 2
    # sweeps, but not all 40 reads' decoded bits
    cnf_path = tmp_path / "wide.cnf"
    cnf_path.write_text("p cnf 100 1\n1 2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    monkeypatch.setattr(native_mod, "_RUN_BYTES", 1000)
    monkeypatch.setattr(samplers_mod, "decode_all", lambda *args: pytest.fail("decoded a run"))
    monkeypatch.setattr(samplers_mod, "_anneal", lambda *args: pytest.fail("annealed a run"))
    capsys.readouterr()
    out = tmp_path / "samples.jsonl"
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "5", "--sweeps", "2", "--gauges", "8", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "cascor: limit error: decoded bits of every run of 40 rows" in err
    assert "Traceback" not in err and not out.exists()


def test_sample_with_gauges_solutions_satisfy(tmp_path):
    cnf_path = gen_instance(tmp_path)
    cnf = parse_dimacs(cnf_path.read_text())
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    out = tmp_path / "samples.jsonl"
    assert run(
        "sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "9",
        "--reads", "50", "--sweeps", "30", "--gauges", "4", "--out", str(out),
    ) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 200
    assert {l["gauge"] for l in lines} == {0, 1, 2, 3}
    decoded = 0
    for doc in lines:
        if doc["solution"] is not None:
            decoded += 1
            assignment = tuple(ch == "1" for ch in doc["solution"])
            assert evaluate(cnf, assignment)
    assert decoded > 0


def test_sample_deterministic_bytes(tmp_path):
    cnf_path = gen_instance(tmp_path)
    model = tmp_path / "model.json"
    run("compile", "--cnf", str(cnf_path), "--out", str(model))
    outs = []
    for name in ("s1.jsonl", "s2.jsonl"):
        out = tmp_path / name
        assert run("sample", "--model", str(model), "--cnf", str(cnf_path),
                   "--seed", "4", "--reads", "20", "--sweeps", "10",
                   "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sample_of_fields_past_the_integral_bound(tmp_path):
    # -1e20 is a whole number, but sum|h| exceeds 2**53: the model samples as float64.
    # The file is compile's, every field and ground energy scaled by 1e20.
    cnf_path = tmp_path / "units.cnf"
    cnf_path.write_text("p cnf 2 2\n1 0\n2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    assert doc["h"] == [-1, -1] and doc["J"] == []
    doc.update(h=[-1e20, -1e20], clause_ground_energies=[-1e20, -1e20], ground_bound=-2e20)
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "3",
               "--reads", "5", "--sweeps", "4", "--out", str(out)) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5 and all(line["spins"] == [1, 1] for line in lines)


def test_sample_at_a_beta_whose_table_products_overflow(tmp_path, capsys):
    # 2 beta is finite, but 2 beta x 2 passes float64's range: those entries are 0
    cnf_path = tmp_path / "two.cnf"
    cnf_path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    capsys.readouterr()
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "4", "--beta-end", "8e307", "--out", str(tmp_path / "s.jsonl")) == 0
    assert capsys.readouterr().err == ""


def test_missing_compiler_is_not_an_input_error(tmp_path, private_kernel_cache, monkeypatch):
    cnf_path = tmp_path / "inst.cnf"
    cnf_path.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    monkeypatch.setattr(native_mod, "_CC", "cascor-no-such-cc")
    # subprocess raises FileNotFoundError, which main() would report as exit 2
    for command, argv in [
        ("gen", ["--n", "6", "--m", "5", "--lengths", "2:1", "--cap", "64"]),
        ("sample", ["--model", str(model), "--cnf", str(cnf_path), "--reads", "2",
                    "--sweeps", "2"]),
    ]:
        with pytest.raises(RuntimeError, match="cascor-no-such-cc"):
            run(command, *argv, "--seed", "1", "--out", str(tmp_path / "out"))


def test_allsat_cap_hit_flagged(tmp_path, capsys):
    path = tmp_path / "loose.cnf"
    path.write_text("p cnf 8 1\n1 2 0\n")
    out = tmp_path / "events.jsonl"
    assert run("allsat", "--cnf", str(path), "--cap", "100", "--out", str(out)) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["cap_hit"] is True and summary["complete"] is False
    assert summary["count"] == 100
    assert len(out.read_text().splitlines()) == 100


def test_allsat_huge_cap_sizes_nothing_by_the_cap(tmp_path, capsys):
    path = tmp_path / "four.cnf"
    path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    out = tmp_path / "events.jsonl"
    assert run("allsat", "--cnf", str(path), "--cap", "1000000000000", "--out", str(out)) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["count"] == 4 and summary["complete"] is True
    assert len(out.read_text().splitlines()) == 4


def test_allsat_stable_output_bytes(tmp_path, capsys):
    path = gen_instance(tmp_path)
    capsys.readouterr()  # drop the gen summary line
    blobs = []
    for name in ("e1.jsonl", "e2.jsonl"):
        out = tmp_path / name
        assert run("allsat", "--cnf", str(path), "--cap", "100",
                   "--stable-output", "--out", str(out)) == 0
        blobs.append(out.read_bytes() + capsys.readouterr().out.encode())
    assert blobs[0] == blobs[1]
    # the same clock as bench --stable-output: 1 us per solution
    events = [json.loads(line) for line in (tmp_path / "e1.jsonl").read_text().splitlines()]
    assert events and all(e["wall_time_us"] == e["index"] for e in events)


def test_metrics_subcommand_roundtrip(tmp_path):
    cnf_path = gen_instance(tmp_path)
    model = tmp_path / "model.json"
    samples = tmp_path / "samples.jsonl"
    events = tmp_path / "events.jsonl"
    report_path = tmp_path / "report.json"
    run("compile", "--cnf", str(cnf_path), "--out", str(model))
    run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "2",
        "--reads", "40", "--sweeps", "30", "--out", str(samples))
    run("allsat", "--cnf", str(cnf_path), "--cap", "100", "--out", str(events))
    assert run(
        "metrics", "--cnf", str(cnf_path), "--model", str(model),
        "--samples", str(samples), "--events", str(events),
        "--instance-id", "t0", "--out", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["instance_id"] == "t0"
    assert set(report["crossovers"]) == {"core", "wall"}


def make_bench_dir(tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for i, seed in enumerate([11, 12, 13]):
        run("gen", "--n", "6", "--m", "5", "--lengths", "2:1,3:1",
            "--cap", "60", "--seed", str(seed),
            "--out", str(inst_dir / f"i{i}.cnf"))
    return inst_dir


def test_bench_csv_shape_and_stability(tmp_path, monkeypatch):
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = make_bench_dir(tmp_path)
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = run(
            "bench", "--instances", str(inst_dir), "--seed", "5",
            "--reads", "30", "--sweeps", "20", "--cap", "100",
            "--stable-output", "--reports-dir", str(tmp_path / "reports"),
            "--out", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 * 2  # two axis rows per instance
    reports = sorted(p.name for p in (tmp_path / "reports").glob("*.report.json"))
    assert reports == ["i0.report.json", "i1.report.json", "i2.report.json"]


def test_bench_parallel_matches_serial(tmp_path, monkeypatch):
    inst_dir = make_bench_dir(tmp_path)
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CASCOR_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        assert run(
            "bench", "--instances", str(inst_dir), "--seed", "5",
            "--reads", "20", "--sweeps", "15", "--cap", "100",
            "--stable-output", "--out", str(out),
        ) == 0
        outputs[threads] = out.read_bytes()
    assert outputs["1"] == outputs["2"]


def test_bad_thread_count_is_input_error(tmp_path, monkeypatch, capsys):
    inst_dir = make_bench_dir(tmp_path)
    monkeypatch.setenv("CASCOR_THREADS", "two")
    assert run("bench", "--instances", str(inst_dir), "--seed", "1",
               "--out", str(tmp_path / "o.csv")) == 2
    assert "CASCOR_THREADS must be an integer, not 'two'" in capsys.readouterr().err
    for value, workers in (("0", 1), ("-3", 1), ("2", 2), ("9", 3)):
        monkeypatch.setenv("CASCOR_THREADS", value)
        assert _worker_count(3) == workers


def test_bench_empty_dir_is_input_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run("bench", "--instances", str(empty), "--seed", "1",
               "--out", str(tmp_path / "o.csv")) == 2


def test_stray_policy_seed_is_input_error_in_compile_and_bench(tmp_path):
    inst_dir = make_bench_dir(tmp_path)
    flags = ("--policy", "chain", "--policy-seed", "3")
    assert run("compile", "--cnf", str(inst_dir / "i0.cnf"), *flags,
               "--out", str(tmp_path / "m.json")) == 2
    assert run("bench", "--instances", str(inst_dir), "--seed", "1", *flags,
               "--out", str(tmp_path / "o.csv")) == 2


@pytest.mark.parametrize("command, flag, value", [
    ("sample", "--gauges", "-2"),
    ("bench", "--gauges", "-2"),
    ("allsat", "--time-budget-us", "-5"),
    ("bench", "--time-budget-us", "-5"),
    ("gen", "--attempts", "0"),
    ("sample", "--seed", "-1"),  # the last --seed wins
    ("bench", "--seed", "-1"),
    ("sample", "--beta-end", "inf"),
    ("bench", "--beta-end", "inf"),
    ("sample", "--beta-end", "1e308"),  # 2 beta overflows
    ("bench", "--beta-end", "1e308"),
    ("gen", "--lengths", "2:nan"),
    ("gen", "--lengths", "2:inf"),
    ("gen", "--lengths", "2:1,3:inf"),
    ("compile", "--policy-seed", "-1"),  # with --policy seeded_random
    ("bench", "--policy-seed", "-1"),
])
def test_flag_value_out_of_range_is_input_error(command, flag, value, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = make_bench_dir(tmp_path)
    cnf = str(inst_dir / "i0.cnf")
    model = tmp_path / "m.json"
    assert run("compile", "--cnf", cnf, "--out", str(model)) == 0
    argv = {
        "sample": ["--model", str(model), "--cnf", cnf, "--seed", "1", "--reads", "2"],
        "bench": ["--instances", str(inst_dir), "--seed", "1", "--reads", "2"],
        "allsat": ["--cnf", cnf],
        "gen": ["--n", "6", "--m", "1", "--lengths", "2:1", "--cap", "8", "--seed", "3"],
        "compile": ["--cnf", cnf],
    }[command]
    if flag == "--policy-seed":
        argv = [*argv, "--policy", "seeded_random"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *argv, flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--cap", "0"), ("--time-budget-us", "-5")])
def test_bench_flags_are_checked_before_workers_start(flag, value, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("CASCOR_THREADS", "2")
    inst_dir = make_bench_dir(tmp_path)

    def no_pool(*args, **kwargs):
        raise AssertionError("bench started a worker pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("bench", "--instances", str(inst_dir), "--seed", "1", flag, value,
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("cascor: input error:")
    assert not out.exists()


def test_bench_reports_dir_naming_a_file_is_input_error_before_any_instance(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = make_bench_dir(tmp_path)
    monkeypatch.setattr(cli, "_bench_one", lambda *args: pytest.fail("bench ran an instance"))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("bench", "--instances", str(inst_dir), "--seed", "1", "--reports-dir", str(taken),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("error", [KeyError, FileNotFoundError])
def test_internal_key_error_is_not_an_input_error(error, tmp_path, monkeypatch, capsys):
    # The KeyError/ValueError/OSError catch covers parsing and flags only, not the pipeline.
    inst_dir = make_bench_dir(tmp_path)
    monkeypatch.setenv("CASCOR_THREADS", "1")

    def broken_summary(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr(metrics_mod, "summarize_instance", broken_summary)
    with pytest.raises(error, match="internal"):
        run("bench", "--instances", str(inst_dir), "--seed", "1", "--reads", "5",
            "--sweeps", "3", "--out", str(tmp_path / "o.csv"))
    assert "input error" not in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path):
    assert run("compile", "--cnf", str(tmp_path / "nope.cnf"),
               "--out", str(tmp_path / "m.json")) == 2


@pytest.mark.parametrize("command, flag", [
    ("compile", "--cnf"), ("sample", "--cnf"), ("sample", "--model"), ("allsat", "--cnf"),
    ("metrics", "--cnf"), ("metrics", "--model"), ("metrics", "--samples"),
    ("metrics", "--events"), ("bench", "--instances"),
])
def test_input_path_that_cannot_be_read_is_input_error(command, flag, stored_outputs,
                                                      tmp_path, capsys, monkeypatch):
    # a directory where a file should be; for bench, a directory named like an instance
    monkeypatch.setenv("CASCOR_THREADS", "1")
    unreadable = tmp_path / "dir.cnf"
    unreadable.mkdir()
    paths = {f"--{name}": str(stored_outputs[name])
             for name in ("cnf", "model", "samples", "events")}
    paths["--instances"] = str(tmp_path)
    if flag != "--instances":
        paths[flag] = str(unreadable)
    flags = {
        "compile": ["--cnf"],
        "sample": ["--model", "--cnf", "--seed", "1", "--reads", "2", "--sweeps", "2"],
        "allsat": ["--cnf"],
        "metrics": ["--cnf", "--model", "--samples", "--events"],
        "bench": ["--instances", "--seed", "1", "--reads", "2", "--sweeps", "2"],
    }[command]
    argv = [part for arg in flags for part in ([arg, paths[arg]] if arg in paths else [arg])]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", list(subcommands()))
def test_out_in_a_missing_directory_fails_before_any_work(command, stored_outputs, tmp_path,
                                                          capsys, monkeypatch):
    monkeypatch.setenv("CASCOR_THREADS", "1")
    for module, name in [(sat_mod, "_draw_instance"), (cli, "compile_cnf"),
                         (samplers_mod, "sample"), (samplers_mod, "sample_with_srt_rotation"),
                         (allsat_mod, "enumerate_all"), (metrics_mod, "summarize_instance")]:
        monkeypatch.setattr(module, name, lambda *args, name=name, **kw: pytest.fail(name))
    paths = {name: str(stored_outputs[name]) for name in ("cnf", "model", "samples", "events")}
    argv = {
        "gen": ["--n", "6", "--m", "5", "--lengths", "2:1", "--cap", "64", "--seed", "1"],
        "compile": ["--cnf", paths["cnf"]],
        "sample": ["--model", paths["model"], "--cnf", paths["cnf"], "--seed", "1",
                   "--reads", "3", "--sweeps", "3"],
        "allsat": ["--cnf", paths["cnf"]],
        "metrics": ["--cnf", paths["cnf"], "--model", paths["model"],
                    "--samples", paths["samples"], "--events", paths["events"]],
        "bench": ["--instances", str(stored_outputs["cnf"].parent), "--seed", "1",
                  "--reads", "3", "--sweeps", "3"],
    }[command]
    taken = tmp_path / "taken"
    taken.mkdir()
    for out, message in [(tmp_path / "nodir" / "out", "no directory"),
                         (taken, f"output path {str(taken)!r} is a directory")]:
        capsys.readouterr()
        assert run(command, *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cascor: input error: {message}") and "Traceback" not in err
    assert not (tmp_path / "nodir").exists() and not any(taken.iterdir())


def test_gen_refuses_a_directory_at_its_sidecar_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sat_mod, "_draw_instance", lambda *args: pytest.fail("gen drew"))
    (tmp_path / "g.cnf.json").mkdir()
    assert run("gen", "--n", "6", "--m", "5", "--lengths", "2:1", "--cap", "64", "--seed", "1",
               "--out", str(tmp_path / "g.cnf")) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error: output path") and "Traceback" not in err
    assert "g.cnf.json' is a directory" in err and not (tmp_path / "g.cnf").exists()


def test_bench_refuses_a_directory_at_a_report_path_before_any_instance(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = make_bench_dir(tmp_path)
    monkeypatch.setattr(cli, "_bench_one", lambda *args: pytest.fail("bench ran an instance"))
    (tmp_path / "rep" / "i1.report.json").mkdir(parents=True)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("bench", "--instances", str(inst_dir), "--seed", "1", "--reports-dir",
               str(tmp_path / "rep"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error: output path") and "Traceback" not in err
    assert "i1.report.json' is a directory" in err and not out.exists()


def test_bench_refuses_a_bad_instance_among_good_ones_before_any_anneal(tmp_path, capsys,
                                                                       monkeypatch):
    # z.cnf sorts last, so an instance-by-instance check would anneal i0..i2 first
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = make_bench_dir(tmp_path)
    (inst_dir / "z.cnf").write_text("")
    monkeypatch.setattr(cli, "_sample_runs", lambda *args: pytest.fail("bench annealed"))
    out, reports = tmp_path / "o.csv", tmp_path / "rep"
    capsys.readouterr()
    assert run("bench", "--instances", str(inst_dir), "--seed", "1", "--reports-dir",
               str(reports), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error:") and "Traceback" not in err
    assert "z.cnf" in err
    assert not out.exists() and not reports.exists()


def test_every_subcommand_requires_out():
    # main checks args.out once, before the command runs, for every command
    for name, parser in subcommands().items():
        (out,) = (action for action in parser._actions if "--out" in action.option_strings)
        assert out.required, name


@pytest.mark.parametrize("error", [KeyError, ValueError])
@pytest.mark.parametrize("command", ["sample", "metrics"])
def test_a_compile_fault_in_reading_a_model_is_not_an_input_error(command, error, stored_outputs,
                                                                  tmp_path, capsys, monkeypatch):
    def broken_compile(*args, **kwargs):
        raise error("internal")

    def argv(cnf):
        paths = {"--cnf": str(cnf), **{f"--{name}": str(stored_outputs[name])
                                       for name in ("model", "samples", "events")}}
        flags = {
            "sample": ["--model", "--cnf", "--seed", "1", "--reads", "2", "--sweeps", "2"],
            "metrics": ["--cnf", "--model", "--samples", "--events"],
        }[command]
        return [part for arg in flags for part in ([arg, paths[arg]] if arg in paths else [arg])]

    out = tmp_path / "out"
    monkeypatch.setattr(cli, "compile_cnf", broken_compile)
    with pytest.raises(RuntimeError, match="internal") as info:
        run(command, *argv(stored_outputs["cnf"]), "--out", str(out))
    assert type(info.value.__cause__) is error
    assert "input error" not in capsys.readouterr().err and not out.exists()
    # an empty CNF is still the input's fault, and is found before the compile
    empty = tmp_path / "empty.cnf"
    empty.write_text("p cnf 3 0\n")
    assert run(command, *argv(empty), "--out", str(out)) == 2
    assert capsys.readouterr().err == "cascor: input error: cannot compile a CNF with no clauses\n"


def test_gen_draw_past_the_size_limit_is_limit_error(tmp_path, capsys):
    # 10**8 clauses: refused before their arrays are allocated or any is drawn
    assert run("gen", "--n", "20", "--m", str(10**8), "--lengths", "2:1,3:1", "--cap", "5",
               "--seed", "1", "--out", str(tmp_path / "x.cnf")) == 3
    assert "cascor: limit error: drawn clauses" in capsys.readouterr().err
    assert not (tmp_path / "x.cnf").exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code == 2


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "cascor":  # subcommand parsers are named "cascor gen" and so on
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    try:
        cnf_path = gen_instance(tmp_path)
        model, samples, events = (tmp_path / name for name in ("m.json", "s.jsonl", "e.jsonl"))
        assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
        assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
                   "--reads", "10", "--sweeps", "5", "--out", str(samples)) == 0
        assert run("allsat", "--cnf", str(cnf_path), "--out", str(events)) == 0
        assert run("metrics", "--cnf", str(cnf_path), "--model", str(model), "--samples",
                   str(samples), "--events", str(events), "--out", str(tmp_path / "r.json")) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_one_parser_gives_the_bytes_of_fresh_calls(tmp_path, capsys):
    cnf_path = gen_instance(tmp_path)
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    calls = {
        "gauged": ["--seed", "3", "--reads", "30", "--sweeps", "10", "--gauges", "4"],
        "usage-error": ["--seed", "3", "--reads", "many"],
        "plain": ["--seed", "3", "--reads", "30", "--sweeps", "10"],
    }

    def call(name, out):
        capsys.readouterr()
        try:
            code = run("sample", "--model", str(model), "--cnf", str(cnf_path),
                       *calls[name], "--out", str(out))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        body = out.read_bytes() if out.exists() else b""
        return code, body, captured.out.replace(str(out), "OUT"), captured.err

    in_sequence = {name: call(name, tmp_path / f"seq-{name}.jsonl") for name in calls}
    for name in calls:
        cli.build_parser.cache_clear()
        assert call(name, tmp_path / f"fresh-{name}.jsonl") == in_sequence[name], name
    assert [in_sequence[name][0] for name in calls] == [0, 2, 0]


@pytest.fixture(scope="module")
def stored_outputs(tmp_path_factory):
    """Model, two-gauge sample and event files of one instance, as cascor writes them."""
    tmp_path = tmp_path_factory.mktemp("stored")
    cnf_path = gen_instance(tmp_path)
    paths = {"cnf": cnf_path, "model": tmp_path / "model.json",
             "samples": tmp_path / "samples.jsonl", "events": tmp_path / "events.jsonl"}
    assert run("compile", "--cnf", str(cnf_path), "--out", str(paths["model"])) == 0
    assert run("sample", "--model", str(paths["model"]), "--cnf", str(cnf_path), "--seed", "2",
               "--reads", "40", "--sweeps", "30", "--gauges", "2",
               "--out", str(paths["samples"])) == 0
    assert run("allsat", "--cnf", str(cnf_path), "--stable-output",
               "--out", str(paths["events"])) == 0
    return paths


def run_metrics(paths, out):
    return run("metrics", "--cnf", str(paths["cnf"]), "--model", str(paths["model"]),
               "--samples", str(paths["samples"]), "--events", str(paths["events"]),
               "--out", str(out))


def test_only_the_sample_writer_computes_energies(stored_outputs, tmp_path, monkeypatch):
    # reports never read a read's energy: bench and metrics compute none, and sample
    # one per distinct spins row of the file, whichever gauges' runs hold it
    calls = []

    def counted(model, spins, *rest):
        calls.append(len(spins))
        return energies_of_states(model, spins, *rest)

    monkeypatch.setattr(samplers_mod, "energies_of_states", counted)
    monkeypatch.setattr(ising_mod, "energies_of_states", counted)
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for seed in (11, 12):
        gen_instance(inst_dir, f"i{seed}.cnf", seed=seed, cap=60)
    assert run("bench", "--instances", str(inst_dir), "--seed", "1", "--reads", "30",
               "--sweeps", "5", "--gauges", "2", "--out", str(tmp_path / "o.csv")) == 0
    assert run_metrics(stored_outputs, tmp_path / "report.json") == 0
    assert calls == []
    paths = stored_outputs
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(paths["model"]), "--cnf", str(paths["cnf"]),
               "--seed", "2", "--reads", "40", "--sweeps", "30", "--gauges", "3",
               "--out", str(out)) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    rows = {tuple(line["spins"]) for line in lines}
    assert calls == [len(rows)] and len(rows) < len(lines) == 120


def test_each_run_is_grouped_once(stored_outputs, tmp_path, monkeypatch):
    # the decoder, the sample writer and the report share each batch's one grouping
    calls = []
    grouping = samplers_mod.SampleBatch.distinct_rows

    def counted(batch):
        calls.append(len(batch))
        return grouping.func(batch)

    counted_rows = functools.cached_property(counted)
    counted_rows.__set_name__(samplers_mod.SampleBatch, "distinct_rows")
    monkeypatch.setattr(samplers_mod.SampleBatch, "distinct_rows", counted_rows)
    paths = stored_outputs
    assert run("sample", "--model", str(paths["model"]), "--cnf", str(paths["cnf"]),
               "--seed", "2", "--reads", "40", "--sweeps", "30", "--gauges", "3",
               "--out", str(tmp_path / "s.jsonl")) == 0
    assert calls == [40] * 3
    calls.clear()
    assert run_metrics(stored_outputs, tmp_path / "report.json") == 0
    assert calls == [40] * 2  # the stored file's two gauges


def _second_hit(docs):
    """The second line of gauge 0 with a solution: a timeline sees its times."""
    return [d for d in docs if d["gauge"] == 0 and d["solution"] is not None][1]


def _non_solution(docs):
    """An assignment that no event holds: the file lists every solution, so it is none."""
    found = {doc["assignment"] for doc in docs}
    n = len(docs[0]["assignment"])
    return next(text for text in (format(c, f"0{n}b") for c in range(1 << n)) if text not in found)


def _share_a_qubit(docs):
    """Map the model's second laid-out variable to the first one's qubit."""
    var_to_qubit = docs[0]["var_to_qubit"]
    first, second = list(var_to_qubit)[:2]
    var_to_qubit[second] = var_to_qubit[first]


def _repeat_an_ancilla(docs):
    """Give the model's first clause an ancilla some clause already has."""
    blocks = docs[0]["clause_ancillas"]
    blocks[0].append(next(q for block in blocks for q in block))


# One case per fault: the file it is made in, and an edit of that file's parsed lines.
MALFORMED = {
    "mixed-gauge-tag-types": ("samples", lambda docs: docs[0].update(gauge="0")),
    "spins-shorter-than-model": (
        "samples", lambda docs: [doc.update(spins=doc["spins"][:1]) for doc in docs]),
    "spins-longer-than-model": (
        "samples", lambda docs: [doc.update(spins=doc["spins"] + [1]) for doc in docs]),
    "spin-not-plus-or-minus-one": (
        "samples", lambda docs: docs[0].update(spins=[0] + docs[0]["spins"][1:])),
    "boolean-gauge-tag": (
        "samples", lambda docs: [doc.update(gauge=True) for doc in docs if doc["gauge"] == 1]),
    "non-integer-time": ("samples", lambda docs: docs[0].update(core_time_us=None)),
    "decreasing-core-time": ("samples", lambda docs: _second_hit(docs).update(core_time_us=0)),
    "decreasing-wall-time": ("samples", lambda docs: _second_hit(docs).update(wall_time_us=0)),
    "assignment-length-not-num-vars": (
        "events", lambda docs: docs[0].update(assignment=docs[0]["assignment"][:-1])),
    "assignment-not-bits": (
        "events", lambda docs: docs[0].update(assignment="x" + docs[0]["assignment"][1:])),
    "decreasing-event-time": ("events", lambda docs: docs[-1].update(wall_time_us=0)),
    "event-not-a-solution": ("events", lambda docs: docs[0].update(assignment=_non_solution(docs))),
    "negative-gauge-tag": (
        "samples", lambda docs: [doc.update(gauge=-1) for doc in docs if doc["gauge"] == 1]),
    "gap-in-gauge-tags": (
        "samples", lambda docs: [doc.update(gauge=2) for doc in docs if doc["gauge"] == 1]),
    "boolean-spin": ("samples", lambda docs: docs[0]["spins"].__setitem__(0, True)),
    "boolean-time": ("samples", lambda docs: docs[0].update(core_time_us=False)),
    "boolean-read-index": ("samples", lambda docs: docs[1].update(read=True)),
    "boolean-event-index": ("events", lambda docs: docs[0].update(index=True)),
    "boolean-event-time": ("events", lambda docs: docs[0].update(wall_time_us=False)),
    # json.dumps writes these as NaN, Infinity and -Infinity, which json.loads reads back
    "energy-nan": ("samples", lambda docs: docs[0].update(energy=float("nan"))),
    "energy-infinity": ("samples", lambda docs: docs[1].update(energy=float("inf"))),
    "energy-minus-infinity": ("samples", lambda docs: docs[-1].update(energy=float("-inf"))),
    # times that decrease, though np.diff of them wraps past int64 to an increase
    "core-times-wrapping-int64": ("samples", lambda docs: [
        doc.update(core_time_us=k * 10**18) for doc, k in zip(docs, (9, -9, -8))]),
    "event-times-wrapping-int64": ("events", lambda docs: [
        doc.update(wall_time_us=k * 10**18) for doc, k in zip(docs, (9, -9))]),
    # a model file of the wrong JSON shape
    "model-empty-array": ("model", lambda docs: docs.__setitem__(0, [])),
    "model-null": ("model", lambda docs: docs.__setitem__(0, None)),
    "model-h-not-an-array": ("model", lambda docs: docs.__setitem__(0, {"num_qubits": 3, "h": 5})),
    "model-qubit-map-an-array": ("model", lambda docs: docs[0].update(var_to_qubit=[])),
    "model-policy-a-string": ("model", lambda docs: docs[0].update(policy="chain")),
    "model-couplers-a-number": ("model", lambda docs: docs[0].update(J=5)),
    "model-ancillas-of-numbers": ("model", lambda docs: docs[0].update(clause_ancillas=[5])),
    "model-two-variables-on-one-qubit": ("model", _share_a_qubit),
    "model-ancilla-past-the-qubits": (
        "model", lambda docs: docs[0]["clause_ancillas"][0].append(docs[0]["num_qubits"])),
    "model-ancilla-on-a-variable-qubit": (
        "model", lambda docs: docs[0]["clause_ancillas"][0].append(
            next(iter(docs[0]["var_to_qubit"].values())))),
    "model-ancilla-twice": ("model", _repeat_an_ancilla),
    # a layout or values that compile_cnf does not give the CNF under the file's policy
    "model-ancillas-of-four-clauses": (
        "model", lambda docs: docs[0].update(clause_ancillas=docs[0]["clause_ancillas"][:4])),
    "model-clause-ground-energy-changed": (
        "model", lambda docs: docs[0]["clause_ground_energies"].__setitem__(1, 1)),
    "model-ground-bound-changed": ("model", lambda docs: docs[0].update(ground_bound=100)),
    "model-field-changed": ("model", lambda docs: docs[0]["h"].__setitem__(0, 5)),
    "model-coupler-twice": ("model", lambda docs: docs[0]["J"].append(docs[0]["J"][-1])),
    "model-coupler-twice-reversed": ("model", lambda docs: docs[0]["J"].append(
        [docs[0]["J"][0][1], docs[0]["J"][0][0], docs[0]["J"][0][2]])),
    **{f"model-policy-seed-{name}": (
        "model", lambda docs, seed=seed: docs[0].update(policy={"kind": "seeded_random",
                                                                "seed": seed}))
       for name, seed in (("a-string", "x"), ("negative", -5), ("a-boolean", True))},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_stored_output_is_input_error(case, stored_outputs, tmp_path, capsys):
    which, mutate = MALFORMED[case]
    paths = dict(stored_outputs)
    docs = [json.loads(line) for line in paths[which].read_text().splitlines()]
    mutate(docs)
    paths[which] = tmp_path / paths[which].name
    paths[which].write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    capsys.readouterr()
    assert run_metrics(paths, tmp_path / "report.json") == 2
    err = capsys.readouterr().err
    assert "cascor: input error:" in err and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(case for case in MALFORMED if case.startswith("model")))
def test_malformed_model_is_input_error_in_sample(case, stored_outputs, tmp_path, capsys):
    model = tmp_path / "model.json"
    docs = [json.loads(stored_outputs["model"].read_text())]
    MALFORMED[case][1](docs)
    model.write_text(json.dumps(docs[0]) + "\n")
    capsys.readouterr()
    assert run("sample", "--model", str(model), "--cnf", str(stored_outputs["cnf"]), "--seed", "1",
               "--reads", "2", "--sweeps", "2", "--out", str(tmp_path / "s.jsonl")) == 2
    err = capsys.readouterr().err
    assert "cascor: input error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flags", [
    ("sample", ("--reads", "3", "--core-time-us", str(2**63 - 1))),
    ("sample", ("--core-time-us", "99999999999999999999")),
    ("bench", ("--core-time-us", str(2**62))),
])
def test_clock_past_int64_is_input_error(command, flags, stored_outputs, tmp_path, capsys):
    # every time of a run, up to its last wall time, must fit int64
    inputs = (("--model", str(stored_outputs["model"]), "--cnf", str(stored_outputs["cnf"]))
              if command == "sample" else ("--instances", str(stored_outputs["cnf"].parent)))
    capsys.readouterr()
    assert run(command, *inputs, "--seed", "1", *flags, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascor: input error: the run's clock would reach ")
    assert "past int64" in err


def test_event_that_breaks_the_cnf_is_named(tmp_path, capsys):
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    paths = {"cnf": cnf_path, "model": tmp_path / "model.json",
             "samples": tmp_path / "s.jsonl", "events": tmp_path / "e.jsonl"}
    assert run("compile", "--cnf", str(cnf_path), "--out", str(paths["model"])) == 0
    assert run("sample", "--model", str(paths["model"]), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "4", "--sweeps", "4", "--out", str(paths["samples"])) == 0
    assert run("allsat", "--cnf", str(cnf_path), "--out", str(paths["events"])) == 0
    docs = [json.loads(line) for line in paths["events"].read_text().splitlines()]
    assert len(docs) == 3
    docs[1]["assignment"] = "00"
    paths["events"].write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    capsys.readouterr()
    assert run_metrics(paths, tmp_path / "report.json") == 2
    err = capsys.readouterr().err
    assert err == "cascor: input error: event 2 does not satisfy the CNF\n"


@pytest.mark.parametrize("tags", [(-3, 7), (0, 2), (1, None)])
def test_gauge_tags_must_run_from_zero_without_gaps(tags, stored_outputs, tmp_path, capsys):
    # the stored file's gauges 0 and 1 take these tags; None drops the gauge's lines
    paths = dict(stored_outputs)
    docs = [json.loads(line) for line in paths["samples"].read_text().splitlines()]
    docs = [doc for doc in docs if tags[doc["gauge"]] is not None]
    for doc in docs:
        doc["gauge"] = tags[doc["gauge"]]
    paths["samples"] = tmp_path / "samples.jsonl"
    paths["samples"].write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    capsys.readouterr()
    assert run_metrics(paths, tmp_path / "report.json") == 2
    kept = [tag for tag in tags if tag is not None]
    assert capsys.readouterr().err == (f"cascor: input error: {len(kept)} gauge tags run "
                                       f"{min(kept)}..{max(kept)}, not 0..{len(kept) - 1}\n")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_sample_energy_is_input_error(token, tmp_path, capsys):
    # the writer never writes one; json.loads reads each as a float nan or inf
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    paths = {"cnf": cnf_path, "model": tmp_path / "model.json",
             "samples": tmp_path / "s.jsonl", "events": tmp_path / "e.jsonl"}
    assert run("compile", "--cnf", str(cnf_path), "--out", str(paths["model"])) == 0
    assert run("sample", "--model", str(paths["model"]), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "4", "--sweeps", "4", "--out", str(paths["samples"])) == 0
    assert run("allsat", "--cnf", str(cnf_path), "--out", str(paths["events"])) == 0
    assert run_metrics(paths, tmp_path / "report.json") == 0
    lines = paths["samples"].read_text().splitlines(True)
    lines[2] = re.sub(r'"energy": [^,]+', f'"energy": {token}', lines[2])
    paths["samples"].write_text("".join(lines))
    capsys.readouterr()
    assert run_metrics(paths, tmp_path / "report.json") == 2
    assert capsys.readouterr().err == "cascor: input error: gauge 0 energies must be finite numbers\n"


# One case per fault json.loads refuses in a line, made in the file's text.
MALFORMED_TEXT = {
    "two-objects-on-one-line": lambda text: text.replace("}\n", "} ", 1),
    "object-split-across-two-lines": lambda text: text.replace(", ", ",\n", 1),
    "line-led-by-form-feed": lambda text: "\x0c" + text,
    "utf8-bom": lambda text: "\ufeff" + text,
    # json.loads raises RecursionError on this; json.dumps cannot write it for MALFORMED
    "nested-100000-deep": lambda text: "[" * 100_000 + "]" * 100_000 + "\n",
}


@pytest.mark.parametrize("which", ["samples", "events"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
def test_malformed_stored_text_is_input_error(case, which, stored_outputs, tmp_path, capsys):
    paths = dict(stored_outputs)
    text = MALFORMED_TEXT[case](paths[which].read_text())
    paths[which] = tmp_path / paths[which].name
    paths[which].write_bytes(text.encode())
    capsys.readouterr()
    assert run_metrics(paths, tmp_path / "report.json") == 2
    err = capsys.readouterr().err
    assert "cascor: input error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["sample", "metrics"])
def test_deeply_nested_model_is_input_error(command, stored_outputs, tmp_path, capsys):
    paths = dict(stored_outputs, model=tmp_path / "model.json")
    paths["model"].write_text(MALFORMED_TEXT["nested-100000-deep"](""))
    capsys.readouterr()
    if command == "sample":
        assert run("sample", "--model", str(paths["model"]), "--cnf", str(paths["cnf"]),
                   "--seed", "1", "--out", str(tmp_path / "s.jsonl")) == 2
    else:
        assert run_metrics(paths, tmp_path / "report.json") == 2
    err = capsys.readouterr().err
    assert err == f"cascor: input error: model file {paths['model']} nests too deeply\n"


@pytest.mark.parametrize("command", ["sample", "metrics"])
def test_clause_masks_past_the_limit_are_refused_before_any_work(
        command, tmp_path, monkeypatch, capsys):
    # a ring of 33,000 implications x_v -> x_{v+1}: its masks would take 273 MB, and
    # the two ints per clause that the event check once built took 136 MB
    n = 33_000
    cnf = Cnf.of(n, [[-v, v % n + 1] for v in range(1, n + 1)])
    model, layout = compile_cnf(cnf)
    paths = {"cnf": tmp_path / "ring.cnf", "model": tmp_path / "model.json",
             "samples": tmp_path / "s.jsonl", "events": tmp_path / "e.jsonl"}
    paths["cnf"].write_text(emit_dimacs(cnf))
    paths["model"].write_text("{}\n")
    batch = batch_of([(1,) * model.num_qubits], [20], [20])
    paths["samples"].write_bytes(samplers_mod.samples_to_jsonl(model, [batch], [[None]], False))
    paths["events"].write_text("")
    # the model check compiles the ring again; what each command does after it is measured
    monkeypatch.setattr(cli, "_read_compiled", lambda path, cnf: (model, layout))
    monkeypatch.setattr(cli, "_sample_runs", lambda *args: pytest.fail("annealed"))
    capsys.readouterr()
    tracemalloc.start()
    try:
        if command == "sample":
            assert run("sample", "--model", str(paths["model"]), "--cnf", str(paths["cnf"]),
                       "--seed", "1", "--out", str(tmp_path / "out.jsonl")) == 3
        else:
            assert run_metrics(paths, tmp_path / "report.json") == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "cascor: limit error: clause masks" in capsys.readouterr().err
    assert peak < 32 << 20


def test_gen_refuses_clause_objects_past_the_size_limit_at_once(tmp_path, monkeypatch, capsys):
    # 10**7 clauses of 2 literals: their arrays (240 MB) fit the limit, their Clause and
    # Literal objects (3.4 GB) do not, so no draw starts
    monkeypatch.setattr(native_mod, "_kernel", lambda: pytest.fail("drew an instance"))
    tracemalloc.start()
    try:
        assert run("gen", "--n", "20", "--m", str(10**7), "--lengths", "2:1", "--cap", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.cnf")) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "cascor: limit error: drawn clauses" in capsys.readouterr().err


def test_stored_text_with_json_whitespace_and_blank_lines_is_read(stored_outputs, tmp_path):
    # spaces, tabs and CR around a line's object, and blank lines, are allowed
    paths = dict(stored_outputs)
    for which in ("samples", "events"):
        lines = paths[which].read_text().splitlines()
        paths[which] = tmp_path / paths[which].name
        paths[which].write_bytes("".join(f" \t{line}\r\n\x0c\n" for line in lines).encode())
    reports = []
    for name, source in (("plain", stored_outputs), ("spaced", paths)):
        out = tmp_path / f"{name}.json"
        assert run_metrics(source, out) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("field, text", [
    ("h", "1" + "0" * 400),  # an integer past float64's range: float() overflows
    ("J", '"nan"'),  # a string
    ("h", "1e400"),  # the json module parses it as inf
    ("ground_bound", '"x"'),
    ("clause_ground_energies", '"x"'),
], ids=["integer-past-float64", "string-coupling", "infinite-field", "string-ground-bound",
        "string-clause-ground-energy"])
def test_unusable_model_coefficient_is_input_error(field, text, tmp_path, capsys):
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    if field == "J":
        doc["J"][0][2] = "@"
    elif field == "ground_bound":
        doc["ground_bound"] = "@"
    else:
        doc[field][0] = "@"
    model.write_text(json.dumps(doc).replace('"@"', text))
    capsys.readouterr()
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "2", "--sweeps", "2", "--out", str(tmp_path / "s.jsonl")) == 2
    err = capsys.readouterr().err
    assert "cascor: input error: model coefficient" in err and "Traceback" not in err


# One case per qubit index or count that int() would read as some other integer,
# and a count that the dense h does not hold.
NON_INTEGER_QUBITS = {
    "num-qubits-past-h": lambda doc: doc.update(num_qubits=10**12),
    "float-coupler-index": lambda doc: doc["J"][0].__setitem__(0, 0.9),
    "float-num-qubits": lambda doc: doc.update(num_qubits=3.7),
    "string-num-qubits": lambda doc: doc.update(num_qubits=str(doc["num_qubits"])),
    "boolean-variable-qubit": lambda doc: doc["var_to_qubit"].update({"2": True}),
    "float-ancilla": lambda doc: doc["clause_ancillas"][0].__setitem__(0, 3.0),
    # variable keys that int() reads as 2
    "spaced-variable-key": lambda doc: doc["var_to_qubit"].update(
        {" 2": doc["var_to_qubit"].pop("2")}),
    "underscored-variable-key": lambda doc: doc["var_to_qubit"].update(
        {"0_2": doc["var_to_qubit"].pop("2")}),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_QUBITS))
def test_non_integer_qubit_in_model_is_input_error(case, tmp_path, capsys):
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 3 1\n1 2 3 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    assert doc["var_to_qubit"]["2"] == 1 and doc["clause_ancillas"] == [[3]]
    NON_INTEGER_QUBITS[case](doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "2", "--sweeps", "2", "--out", str(tmp_path / "s.jsonl")) == 2
    err = capsys.readouterr().err
    assert "cascor: input error: model qubit" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["sample", "metrics"])
@pytest.mark.parametrize("fault", ["cnf-of-other-variables", "qubit-past-num-qubits"])
def test_model_layout_not_fitting_the_cnf_is_input_error(command, fault, tmp_path, capsys):
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 3 1\n1 2 3 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    samples, events = tmp_path / "s.jsonl", tmp_path / "e.jsonl"
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "2", "--sweeps", "2", "--out", str(samples)) == 0
    assert run("allsat", "--cnf", str(cnf_path), "--out", str(events)) == 0
    if fault == "cnf-of-other-variables":
        cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    else:
        doc = json.loads(model.read_text())
        doc["var_to_qubit"]["3"] = doc["num_qubits"]
        model.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = {
        "sample": ["--seed", "1", "--reads", "2", "--sweeps", "2"],
        "metrics": ["--samples", str(samples), "--events", str(events)],
    }[command]
    assert run(command, "--model", str(model), "--cnf", str(cnf_path), *argv,
               "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "cascor: input error: model" in err and "Traceback" not in err


# Clauses of four and five literals, so that the three policies couple qubits apart.
SCALED_CNF = parse_dimacs("p cnf 6 4\n1 2 3 -4 5 0\n-1 4 0\n2 -5 6 0\n-3 -4 6 1 0\n")
POLICIES = [ConstructionPolicy("chain"), ConstructionPolicy("balanced"),
            ConstructionPolicy("seeded_random", 9)]
SCALES = [1, 0.1, 1 / 3, 3]


def _scaled_model_doc(policy, scale):
    """compile's document for SCALED_CNF with every coefficient and ground energy times scale."""
    doc = compiled_to_json(*compile_cnf(SCALED_CNF, policy), policy)
    doc["h"] = [scale * v for v in doc["h"]]
    doc["J"] = [[i, j, scale * v] for i, j, v in doc["J"]]
    doc["clause_ground_energies"] = [scale * e for e in doc["clause_ground_energies"]]
    doc["ground_bound"] *= scale
    return doc


def _sample_model_doc(doc, directory) -> int:
    (directory / "model.json").write_text(json.dumps(doc))
    (directory / "f.cnf").write_text(emit_dimacs(SCALED_CNF))
    return run("sample", "--model", str(directory / "model.json"), "--cnf",
               str(directory / "f.cnf"), "--seed", "1", "--reads", "2", "--sweeps", "2",
               "--out", str(directory / "s.jsonl"))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.kind)
def test_read_compiled_gives_the_compiled_layout_and_the_files_model(policy, scale, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(_scaled_model_doc(policy, scale)))
    model, layout = cli._read_compiled(str(model_path), SCALED_CNF)
    compiled_model, compiled_layout = compile_cnf(SCALED_CNF, policy)
    assert layout == compiled_layout
    assert model.h == {q: scale * v for q, v in compiled_model.h.items()}
    assert model.J == {pair: scale * v for pair, v in compiled_model.J.items()}
    # the other policies couple other qubits, so only the file's policy gives this model
    assert all(compile_cnf(SCALED_CNF, other)[0].J.keys() != model.J.keys()
               for other in POLICIES if other != policy)
    assert _sample_model_doc(_scaled_model_doc(policy, scale), tmp_path) == 0


def _paths(value, path=()):
    """The path to value and to each value inside it: object keys and array indices."""
    yield path
    if type(value) in (dict, list):
        for key, item in value.items() if type(value) is dict else enumerate(value):
            yield from _paths(item, path + (key,))


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _other_json_types(value) -> list:
    """One value of each JSON type but value's (JSON has one number type)."""
    json_type = lambda v: float if type(v) is int else type(v)
    return [v for v in ("x", True, None, [], {}, 1.5) if json_type(v) is not json_type(value)]


@st.composite
def mutated_model_docs(draw):
    """(a scaled compile document with one mutation, whether the mutation left it unchanged)."""
    doc = _scaled_model_doc(draw(st.sampled_from(POLICIES)), draw(st.sampled_from(SCALES)))
    kind = draw(st.sampled_from(["retype", "drop", "duplicate", "scale"]))
    if kind == "retype":  # any value, the document included, as a value of another JSON type
        path = draw(st.sampled_from(list(_paths(doc))))
        old = _at(doc, path)[path[-1]] if path else doc
        new = draw(st.sampled_from(_other_json_types(old)))
        if not path:
            return new, False
        _at(doc, path)[path[-1]] = new
    elif kind == "drop":
        path = draw(st.sampled_from([p for p in _paths(doc) if p and type(_at(doc, p)) is dict]))
        del _at(doc, path)[path[-1]]
    elif kind == "duplicate":
        entry = draw(st.sampled_from(doc["J"]))
        doc["J"].insert(draw(st.integers(0, len(doc["J"]))), list(entry))
    else:
        path = draw(st.sampled_from(
            [("h", q) for q in range(len(doc["h"]))] + [("J", k, 2) for k in range(len(doc["J"]))]
            + [("clause_ground_energies", c) for c in range(len(doc["clause_ground_energies"]))]
            + [("ground_bound",)]))
        factor = draw(st.sampled_from([1, 0, -1, 0.5, 2, 1 + 2**-40]))
        old = _at(doc, path)[path[-1]]
        _at(doc, path)[path[-1]] = factor * old
        return doc, factor == 1 or old == 0
    return doc, False


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=200, deadline=None)
@given(case=mutated_model_docs())
def test_sample_takes_only_a_scaled_compiled_model(case, mutation_dir):
    """A model file one mutation away from compile's output scaled by one factor:
    sample runs it only when the mutation changed nothing, and else exits 2."""
    doc, unchanged = case
    assert _sample_model_doc(doc, mutation_dir) == (0 if unchanged else 2)


# Times past either end of int64 once subtracted from a neighbour, and ones that are not.
FUZZ_TIMES = [0, -1, 2**63 - 1, -2**63, 9 * 10**18]
MUTATIONS = ["retype", "time", "drop-key", "drop-line", "duplicate-line", "truncate-line"]


def _mutated_lines(lines: list[str], kind: str, line: int, picks: tuple[int, int]) -> list[str]:
    """lines, each one JSON object, with one mutation of the kind at index line (modulo
    their count); picks choose among its options, each modulo their count."""
    i = line % len(lines)
    pick = lambda options, k: options[picks[k] % len(options)]
    if kind.endswith("line"):
        new = {"drop-line": [], "duplicate-line": [lines[i]] * 2,
               "truncate-line": [lines[i][:picks[0] % len(lines[i])]]}[kind]
        return lines[:i] + new + lines[i + 1:]
    docs = [json.loads(text) for text in lines]
    if kind == "retype":  # any value, the line's object included
        path = pick(list(_paths(docs[i])), 0)
        parent, key = (_at(docs[i], path), path[-1]) if path else (docs, i)
        parent[key] = pick(_other_json_types(parent[key]), 1)
    elif kind == "time":
        docs[i][pick([key for key in docs[i] if key.endswith("time_us")], 0)] = pick(FUZZ_TIMES, 1)
    else:
        del docs[i][pick(list(docs[i]), 0)]
    return [json.dumps(doc) for doc in docs]


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["samples", "events"]), kind=st.sampled_from(MUTATIONS),
       line=st.integers(), picks=st.tuples(st.integers(0, 255), st.integers(0, 255)))
# -2**63 as a stream's last time: np.diff of it wraps to an increase
@example(which="samples", kind="time", line=-1, picks=(0, 3))
@example(which="events", kind="time", line=-1, picks=(0, 3))
def test_metrics_takes_a_mutated_sample_or_event_file(which, kind, line, picks, stored_outputs,
                                                      mutation_dir):
    """A sample or event file one mutation away from what cascor wrote: metrics
    exits 0 or 2, and raises nothing (the CLI would print its traceback)."""
    paths = dict(stored_outputs)
    lines = _mutated_lines(paths[which].read_text().splitlines(), kind, line, picks)
    paths[which] = mutation_dir / paths[which].name
    paths[which].write_text("".join(text + "\n" for text in lines))
    assert run_metrics(paths, mutation_dir / "report.json") in (0, 2)


def _readme_commands() -> list[str]:
    """Every ``cascor ...`` line of the README's sh blocks, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("cascor ")]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert {c.split()[1] for c in commands} == {
        "gen", "compile", "sample", "allsat", "metrics", "bench"}
    for command in commands:
        cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
