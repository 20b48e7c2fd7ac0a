import json

import pytest

import cascor.allsat as allsat_mod
import cascor.metrics as metrics_mod
import cascor.samplers as samplers_mod
import cascor.sat as sat_mod
from cascor.cli import _worker_count, main
from cascor.metrics import CSV_COLUMNS, InstanceReport
from cascor.sat import evaluate, parse_dimacs

from conftest import brute_force_solutions


def run(*argv):
    return main(list(argv))


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


def test_gen_enumerates_each_attempt_once(tmp_path, monkeypatch):
    # The count gen writes comes from the screening run; no second enumeration.
    calls = {"draw": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sat_mod, "_draw_instance", counted("draw", sat_mod._draw_instance))
    monkeypatch.setattr(allsat_mod, "enumerate_all", counted("enumerate", allsat_mod.enumerate_all))
    path = gen_instance(tmp_path, seed=12, cap=8)
    assert calls["draw"] > 1 and calls["enumerate"] == calls["draw"]
    sidecar = json.loads((tmp_path / "inst.cnf.json").read_text())
    assert sidecar["solution_count"] == len(brute_force_solutions(parse_dimacs(path.read_text())))


def test_gen_missing_weights_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run("gen", "--n", "4", "--m", "2", "--cap", "8", "--seed", "1",
            "--out", str(tmp_path / "x.cnf"))
    assert info.value.code == 1


def test_gen_retry_exhaustion_exit_code(tmp_path):
    # cap=1 on an unconstrained family: a single width-2 clause always has
    # at least three solutions over two variables.
    code = run(
        "gen", "--n", "6", "--m", "1", "--lengths", "2:1", "--cap", "1",
        "--seed", "3", "--attempts", "25", "--out", str(tmp_path / "x.cnf"),
    )
    assert code == 3


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
    # -1e20 is a whole number, but sum|h| exceeds 2**53: the model samples as float64
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    doc["h"] = [-1e20, -1e20]
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "3",
               "--reads", "5", "--sweeps", "4", "--out", str(out)) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 5 and all(line["spins"] == [1, 1] for line in lines)


def test_missing_compiler_is_not_an_input_error(tmp_path, private_kernel_cache, monkeypatch):
    cnf_path = gen_instance(tmp_path)
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    monkeypatch.setattr(samplers_mod, "_CC", "cascor-no-such-cc")
    # subprocess raises FileNotFoundError, which main() would report as exit 2
    with pytest.raises(RuntimeError, match="cascor-no-such-cc"):
        run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1", "--reads", "2",
            "--sweeps", "2", "--out", str(tmp_path / "s.jsonl"))


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
    report = InstanceReport.from_json(report_path.read_text())
    assert report.instance_id == "t0"
    assert set(report.crossovers) == {"core", "wall"}


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


def test_internal_key_error_is_not_an_input_error(tmp_path, monkeypatch, capsys):
    # The KeyError/ValueError catch covers parsing and flags only, not the pipeline.
    inst_dir = make_bench_dir(tmp_path)
    monkeypatch.setenv("CASCOR_THREADS", "1")

    def broken_summary(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(metrics_mod, "summarize_instance", broken_summary)
    with pytest.raises(KeyError, match="internal"):
        run("bench", "--instances", str(inst_dir), "--seed", "1", "--reads", "5",
            "--sweeps", "3", "--out", str(tmp_path / "o.csv"))
    assert "input error" not in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path):
    assert run("compile", "--cnf", str(tmp_path / "nope.cnf"),
               "--out", str(tmp_path / "m.json")) == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code == 1


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


def _second_hit(docs):
    """The second line of gauge 0 with a solution: a timeline sees its times."""
    return [d for d in docs if d["gauge"] == 0 and d["solution"] is not None][1]


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
    assert run("metrics", "--cnf", str(paths["cnf"]), "--model", str(paths["model"]),
               "--samples", str(paths["samples"]), "--events", str(paths["events"]),
               "--out", str(tmp_path / "report.json")) == 2
    err = capsys.readouterr().err
    assert "cascor: input error:" in err and "Traceback" not in err


@pytest.mark.parametrize("field, text", [
    ("h", "1" + "0" * 400),  # an integer past float64's range: float() overflows
    ("J", '"nan"'),  # a string
    ("h", "1e400"),  # the json module parses it as inf
], ids=["integer-past-float64", "string-coupling", "infinite-field"])
def test_unusable_model_coefficient_is_input_error(field, text, tmp_path, capsys):
    cnf_path = tmp_path / "or.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    model = tmp_path / "model.json"
    assert run("compile", "--cnf", str(cnf_path), "--out", str(model)) == 0
    doc = json.loads(model.read_text())
    if field == "h":
        doc["h"][0] = "@"
    else:
        doc["J"][0][2] = "@"
    model.write_text(json.dumps(doc).replace('"@"', text))
    capsys.readouterr()
    assert run("sample", "--model", str(model), "--cnf", str(cnf_path), "--seed", "1",
               "--reads", "2", "--sweeps", "2", "--out", str(tmp_path / "s.jsonl")) == 2
    err = capsys.readouterr().err
    assert "cascor: input error: model coefficient" in err and "Traceback" not in err
