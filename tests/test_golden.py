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
    "bench0.csv": "77f7f9ec55e0c16466faa6e512908d403e5a8f5ecfa8a106496625a2a0dad068",
    "bench0/g1.report.json": "58be62e051e08a7453cb847c6a400a6ad97adb1b536b59dadf004bea50a71049",
    "bench0/g2.report.json": "46142443f9ce3c27bf6ed5965033a8f9e276cfae07b81d20cf9dff7a80c76258",
    "bench0/g3.report.json": "aa30c8c490bb6c88a2955ae5bac6f0aad48017bd5c7e1ff6f1f24de240aceed2",
    "bench2.csv": "b0be09d529b722abbb0214ec14911ddf239e0f2e7e57434b01c17c0a3178f2cd",
    "bench2/g1.report.json": "5c31d4b93ad3f56dbd929949e227f2dade152c9722c3b4c4070a77264ea7d8cc",
    "bench2/g2.report.json": "054357b1d2074e0fc7d8df51a8ac3a9cf469b5fa799c74c3b463e52096accf8c",
    "bench2/g3.report.json": "2a8e6e848347935e122cfe166d6160207d4b9b3c722233719d2c3f82d19afa01",
    "g1.events.jsonl": "2519632f393fa14e7bc0b5c02ace60f4615b4dc185d05802c16b924068d3ca80",
    "g1.gauged.jsonl": "384c7f2f9ab0742c5f5391087a4fd9f299d1974828ac1dbde494684cf91b98e5",
    "g1.gauged.report.json": "c41b25089f76e82e613858475e6b52fc38aebd32a0114cae2f651b05e505586f",
    "g1.model.json": "d8e29c094627bca54cd3c66f5a7ba11020caa70f3ad6b5828c4818f50f5d5520",
    "g1.plain.jsonl": "5cf6e923a3f034a4c111f10d7e686dd6f4aeca5a82eb5a6b56ad048d6d60f64d",
    "g1.plain.report.json": "9ef153aa6949797b00558d6223bf35140c38fdb007137401e602ba2a18041da7",
    "g2.events.jsonl": "8634af77f077f7034a9f257f2e71eac5f4ab2bd3e407227b62dcd2803ab48ae9",
    "g2.gauged.jsonl": "23eee8bf8bc09fb1286d7401e5383ec5667f6a163afdd95ee443a1d441eae28f",
    "g2.gauged.report.json": "964a280d69f26c47752e3c221634c0a76a122bed10d5bd45953c7ac8e608ea62",
    "g2.model.json": "dcd884df478f6cb4d8d95ef0c124663bfcf622adf796a5448508f67c99280543",
    "g2.plain.jsonl": "d2822691155225c025a1bd8d7a0b748ab34fbbb663c865c7585ca27a5a733479",
    "g2.plain.report.json": "8a52ff5e671c0e7d72c7c8da0daa89021facdaf0e9e36a7e53635d00fa781d41",
    "g3.events.jsonl": "88e1b13234892f2bbbb101e060b96bfec3c9e5993ceea95ff26a24af96818045",
    "g3.gauged.jsonl": "794361cae4d68a3eb817c4b5c156a8e96bbbcb5e9255aad6228568aae0a9c5ac",
    "g3.gauged.report.json": "e517f33e513572578de3b150a8d0d24cb0151b7e1e24759a408a2f7294734f9e",
    "g3.model.json": "a0d5832650c5e34f8fb6064c40fdaa31efa57b3f7115f202392363afb20d6d13",
    "g3.plain.jsonl": "645e58060932402610173f86dafc3ee210d1d28d59bc1113fe68c225755cb3d3",
    "g3.plain.report.json": "374a4da0eb55b1a889a4db6d3373e072f3ce626207d6d62a4efc751cdc263d3d",
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
