"""Pinned SHA-256 digests of the CLI artifacts for a fixed tiny instance set.

The other CLI tests compare two runs of the same code, so they cannot see an
output change between commits; these pins can.  A change that alters an
artifact on purpose updates the digest here and says why in CHANGES.md.

Three n=12, m=16 instances (g2 leaves variable 5 unused, g3 variables 2 and
11), compiled with the chain policy, 300 reads of 30 sweeps each.  Printed
summaries are pinned too, with the temporary directory replaced by ``<tmp>``.
"""
from __future__ import annotations

import hashlib

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
    "bench0.csv": "0fcafc9af0dc26300785d0a2c5738fd95bbae7d5a97e3108a4354da6847bf38d",
    "bench0/g1.report.json": "58be62e051e08a7453cb847c6a400a6ad97adb1b536b59dadf004bea50a71049",
    "bench0/g2.report.json": "c734be5175ad254eb74edaa231cf369cd2f7bddb4d5034ee437d9c6dee5b521d",
    "bench0/g3.report.json": "da419c32404f8458fcee8062f199ac779d17e99a3546395f577b7a9948f68c87",
    "bench2.csv": "ee3ea0cab68ccb8b061e18653727441a4f81eadc03f621edbb491f48e59bb212",
    "bench2/g1.report.json": "5c31d4b93ad3f56dbd929949e227f2dade152c9722c3b4c4070a77264ea7d8cc",
    "bench2/g2.report.json": "a623cb45e307d9ec5432e6e6e154c268d24f47ea4901c25e0961e33c1efb537a",
    "bench2/g3.report.json": "77907e7c5682a6f7bd8e7bf5f0daba3d73ccb3cd91737250ecb7aee89b4e2488",
    "g1.events.jsonl": "3ff54ba342ed66f062e571b64dbdbe2b50721ed44335a2bf273d7625768ee85c",
    "g1.gauged.jsonl": "384c7f2f9ab0742c5f5391087a4fd9f299d1974828ac1dbde494684cf91b98e5",
    "g1.gauged.report.json": "c5288c77bfe9cf2e9e2a7c9bc45ecb9b33455ac18c7b5357093a05fa04773f04",
    "g1.model.json": "d8e29c094627bca54cd3c66f5a7ba11020caa70f3ad6b5828c4818f50f5d5520",
    "g1.plain.jsonl": "5cf6e923a3f034a4c111f10d7e686dd6f4aeca5a82eb5a6b56ad048d6d60f64d",
    "g1.plain.report.json": "11a0862d696c6c4cc8225a348d2d909bfc4fad82666a4618112e5899f208def5",
    "g2.events.jsonl": "26763b261c2aec824da49fd4cc5f3bf4d9c20620f4a0ab3db816de6a948f9979",
    "g2.gauged.jsonl": "23eee8bf8bc09fb1286d7401e5383ec5667f6a163afdd95ee443a1d441eae28f",
    "g2.gauged.report.json": "604366ce5adee1dbbed4e4c6f571d15469ee6df20807feeb5f1a501f1fe2ba3c",
    "g2.model.json": "dcd884df478f6cb4d8d95ef0c124663bfcf622adf796a5448508f67c99280543",
    "g2.plain.jsonl": "d2822691155225c025a1bd8d7a0b748ab34fbbb663c865c7585ca27a5a733479",
    "g2.plain.report.json": "7b2d69634e1f9f09bf565b3a00c89c89aa7f8c212a497b2a83c4fdb666e18407",
    "g3.events.jsonl": "305f38f4ea2ce73e30c99c033df2083a0842d359a0afad13f9b2b26221a02839",
    "g3.gauged.jsonl": "794361cae4d68a3eb817c4b5c156a8e96bbbcb5e9255aad6228568aae0a9c5ac",
    "g3.gauged.report.json": "eea661848ed47ce4ba22d4a648329ea06cf02bc7edf58a76bbcae2a503704dc8",
    "g3.model.json": "a0d5832650c5e34f8fb6064c40fdaa31efa57b3f7115f202392363afb20d6d13",
    "g3.plain.jsonl": "645e58060932402610173f86dafc3ee210d1d28d59bc1113fe68c225755cb3d3",
    "g3.plain.report.json": "4d1c814a0fd133d5c5881dfc378facf4858448bc24258e3bc0c110c734a8e978",
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
