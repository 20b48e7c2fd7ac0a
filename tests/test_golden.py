"""Pinned SHA-256 digests of the CLI artifacts for a fixed tiny instance set.

The other CLI tests compare two runs of the same code, so they cannot see an
output change between commits; these pins can.  A change that alters an
artifact on purpose updates the digest here and says why in CHANGES.md.

Three n=12, m=16 instances (g2 leaves variable 5 unused, g3 variables 2 and
11), compiled with the chain policy, 300 reads of 30 sweeps each.  Printed
summaries are pinned too, with the temporary directory replaced by ``<tmp>``.
The file-based commands are also checked to reproduce ``bench``'s reports.
"""
from __future__ import annotations

import hashlib

import pytest

from cascor.cli import main

INSTANCES = {
    "g1": "p cnf 12 16\n"
    "2 -10 -5 0 8 5 -10 -3 0 -5 -6 0 2 10 -7 0 4 -3 -9 -2 0 4 3 -9 0\n"
    "6 -2 0 2 1 -4 0 -5 2 11 0 1 -8 2 0 -3 6 -5 0 12 5 -8 0\n"
    "-9 8 -1 0 5 12 0 -7 2 -10 5 0 11 12 0\n",
    "g2": "p cnf 12 16\n"
    "-12 -9 2 -3 0 -1 -2 0 4 11 -7 0 -8 12 0 -11 -9 0 10 7 0\n"
    "-2 -1 4 0 6 -3 -10 0 4 11 0 1 2 12 0 11 2 0 12 8 10 0\n"
    "11 -12 3 0 9 -1 -12 0 2 10 0 11 -4 -12 0\n",
    "g3": "p cnf 12 16\n"
    "10 6 -5 0 5 -10 -9 0 -6 -1 -4 -7 0 5 7 -9 -6 0 -9 -6 3 0 -4 -1 -6 0\n"
    "-1 -7 0 -4 -8 1 0 -8 12 0 4 9 0 -12 -7 0 9 1 0\n"
    "10 -3 6 0 6 -3 0 -9 -10 0 -3 -9 8 4 0\n",
}

SAMPLER = ("--reads", "300", "--sweeps", "30", "--programming-us", "1000", "--readout-us", "180")

EXPECTED = {
    "bench0.csv": "49a6f381c7994905743b8b7938239a430b1aab0af53cdf66a01d40e99a218522",
    "bench0/g1.report.json": "e82b007e2af5a4573a6b815a59d04bff0334f6f303e8ac90d5b175be0e94990b",
    "bench0/g2.report.json": "d812fb23f21c58a479285685b4748d056ce389691e8827a8586012c585782ce1",
    "bench0/g3.report.json": "a5a3b79c06127d9df1336cc8c897c7d9cc7258c7cbbffd711f5a7cf8bc197454",
    "bench2.csv": "867400f0260ffcb0e9e819964ee223029b76428a454747ccb204e1807a6a32de",
    "bench2/g1.report.json": "125c531d8375efb5ba65e08bf29e7f8f3cdd99840a1e4b964aff03f3eea3d985",
    "bench2/g2.report.json": "55f4ac27c2940d1c49e70568df936e1de7f3efaaa0ad7bc9e33ea4c8d43d75d0",
    "bench2/g3.report.json": "3b38518aae3db53cfe9d969113f1d9ff65d57a797cb6d12439d6027a2e525516",
    "g1.events.jsonl": "2519632f393fa14e7bc0b5c02ace60f4615b4dc185d05802c16b924068d3ca80",
    "g1.gauged.jsonl": "384c7f2f9ab0742c5f5391087a4fd9f299d1974828ac1dbde494684cf91b98e5",
    "g1.gauged.report.json": "40a8887cca1464dfa41feaf64221dc2f302fa340a8dc75a5525518a847d5673e",
    "g1.model.json": "d8e29c094627bca54cd3c66f5a7ba11020caa70f3ad6b5828c4818f50f5d5520",
    "g1.plain.jsonl": "5cf6e923a3f034a4c111f10d7e686dd6f4aeca5a82eb5a6b56ad048d6d60f64d",
    "g1.plain.report.json": "268903137198c381994db0f17b81b6a24caaa635c5b2bccf2e19fa0398dc0c8e",
    "g2.events.jsonl": "8634af77f077f7034a9f257f2e71eac5f4ab2bd3e407227b62dcd2803ab48ae9",
    "g2.gauged.jsonl": "23eee8bf8bc09fb1286d7401e5383ec5667f6a163afdd95ee443a1d441eae28f",
    "g2.gauged.report.json": "b0b7ab59abe94221ca04eedbf5a67a5d7081ad3cb45f3e7a9970501dd7c6400e",
    "g2.model.json": "dcd884df478f6cb4d8d95ef0c124663bfcf622adf796a5448508f67c99280543",
    "g2.plain.jsonl": "d2822691155225c025a1bd8d7a0b748ab34fbbb663c865c7585ca27a5a733479",
    "g2.plain.report.json": "43347be47959d29093d63c363e76f14ee6a90e328c01687d53811ac51dfa2f56",
    "g3.events.jsonl": "88e1b13234892f2bbbb101e060b96bfec3c9e5993ceea95ff26a24af96818045",
    "g3.gauged.jsonl": "794361cae4d68a3eb817c4b5c156a8e96bbbcb5e9255aad6228568aae0a9c5ac",
    "g3.gauged.report.json": "d2ef964b5db1a6d0ac95e0f29f2982a0dc4a1a308a062484555f11f29c92e0b1",
    "g3.model.json": "a0d5832650c5e34f8fb6064c40fdaa31efa57b3f7115f202392363afb20d6d13",
    "g3.plain.jsonl": "645e58060932402610173f86dafc3ee210d1d28d59bc1113fe68c225755cb3d3",
    "g3.plain.report.json": "f3d378ff80914f550530f3b25b2a8fb9fd48da473a474d1772929c3c686a9ac8",
    "stdout": "3a7f259ecd2e2e5a90436cfeb22a909c14a96b2b8f168d111eb7135ff9008f0e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_artifact_digests(tmp_path, capsys, monkeypatch) -> dict[str, str]:
    """Run every subcommand over INSTANCES; digest of each artifact and summary."""
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    digests: dict[str, str] = {}
    stdout: list[str] = []

    def run(*argv) -> None:
        assert main([str(a) for a in argv]) == 0
        stdout.append(capsys.readouterr().out.replace(str(tmp_path), "<tmp>"))

    for idx, (name, text) in enumerate(INSTANCES.items()):
        cnf = inst_dir / f"{name}.cnf"
        cnf.write_text(text)
        out = tmp_path / name
        seed = 3 + idx
        run("compile", "--cnf", cnf, "--out", f"{out}.model.json")
        run("sample", "--model", f"{out}.model.json", "--cnf", cnf, "--seed", seed,
            *SAMPLER, "--out", f"{out}.plain.jsonl")
        run("sample", "--model", f"{out}.model.json", "--cnf", cnf, "--seed", seed,
            *SAMPLER, "--gauges", "2", "--out", f"{out}.gauged.jsonl")
        run("allsat", "--cnf", cnf, "--stable-output", "--out", f"{out}.events.jsonl")
        for kind in ("plain", "gauged"):
            run("metrics", "--cnf", cnf, "--model", f"{out}.model.json",
                "--samples", f"{out}.{kind}.jsonl", "--events", f"{out}.events.jsonl",
                "--instance-id", name, "--out", f"{out}.{kind}.report.json")
        for suffix in ("model.json", "plain.jsonl", "gauged.jsonl", "events.jsonl",
                       "plain.report.json", "gauged.report.json"):
            digests[f"{name}.{suffix}"] = _sha((tmp_path / f"{name}.{suffix}").read_bytes())

    for gauges in ("0", "2"):
        reports = tmp_path / f"bench{gauges}"
        run("bench", "--instances", inst_dir, "--seed", "11", *SAMPLER, "--gauges", gauges,
            "--stable-output", "--reports-dir", reports, "--out", f"{reports}.csv")
        digests[f"bench{gauges}.csv"] = _sha((tmp_path / f"bench{gauges}.csv").read_bytes())
        for path in sorted(reports.glob("*.json")):
            digests[f"bench{gauges}/{path.name}"] = _sha(path.read_bytes())

    digests["stdout"] = _sha("".join(stdout).encode())
    return digests


def test_cli_artifacts_match_pinned_digests(tmp_path, capsys, monkeypatch):
    assert cli_artifact_digests(tmp_path, capsys, monkeypatch) == EXPECTED


@pytest.mark.parametrize("gauges", ["0", "2"])
def test_file_pipeline_reproduces_bench_reports(tmp_path, monkeypatch, gauges):
    """`metrics` over `sample --seed 11+idx` and `allsat --stable-output` events
    gives the bytes of each `bench --seed 11 --stable-output` report."""
    monkeypatch.setenv("CASCOR_THREADS", "1")
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for name, text in INSTANCES.items():
        (inst_dir / f"{name}.cnf").write_text(text)
    reports = tmp_path / "reports"
    assert main(["bench", "--instances", str(inst_dir), "--seed", "11", *SAMPLER,
                 "--gauges", gauges, "--stable-output", "--reports-dir", str(reports),
                 "--out", str(tmp_path / "bench.csv")]) == 0

    for idx, name in enumerate(sorted(INSTANCES)):
        cnf, out = inst_dir / f"{name}.cnf", tmp_path / name
        for argv in (
            ("compile", "--cnf", cnf, "--out", f"{out}.model.json"),
            ("sample", "--model", f"{out}.model.json", "--cnf", cnf, "--seed", 11 + idx,
             *SAMPLER, "--gauges", gauges, "--out", f"{out}.jsonl"),
            ("allsat", "--cnf", cnf, "--stable-output", "--out", f"{out}.events.jsonl"),
            ("metrics", "--cnf", cnf, "--model", f"{out}.model.json", "--samples",
             f"{out}.jsonl", "--events", f"{out}.events.jsonl", "--instance-id", name,
             "--out", f"{out}.report.json"),
        ):
            assert main([str(a) for a in argv]) == 0
        assert (tmp_path / f"{name}.report.json").read_bytes() == (
            reports / f"{name}.report.json"
        ).read_bytes(), name
