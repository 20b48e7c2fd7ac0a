"""Pinned SHA-256 digests of the CLI artifacts for a fixed tiny instance set.

The other CLI tests compare two runs of the same code, so they cannot see an
output change between commits; these pins can.  A change that alters an
artifact on purpose updates the digest here and says why in CHANGES.md.

Three n=12, m=16 instances (g2 leaves variable 5 unused, g3 variables 2 and
11), compiled with the chain policy, 300 reads of 30 sweeps each; each is also
compiled under the balanced and seeded_random policies.  Printed
summaries are pinned too, with the temporary directory replaced by ``<tmp>``.
g1's chain model with every coefficient scaled by 0.1 pins the sample files
of a float model, plain and gauged.
The file-based commands are also checked to reproduce ``bench``'s reports.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from cascor.cli import main
from cascor.compiler import ConstructionPolicy, compile_cnf, compiled_to_json
from cascor.sat import Cnf, _derived_seed

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

POLICIES = {
    "balanced": ("--policy", "balanced"),
    "seeded7": ("--policy", "seeded_random", "--policy-seed", "7"),
}

SAMPLER = ("--reads", "300", "--sweeps", "30", "--programming-us", "1000", "--readout-us", "180")

EXPECTED = {
    "bench0.csv": "5abb0238fbfc75807ab3a6733c2083390acdecd03cd2d3601c287068c1c58354",
    "bench0/g1.report.json": "ba77bc524a5094c0dcd61d6a485a0671445f3c521d9bd9c043c056177c72bfa3",
    "bench0/g2.report.json": "ab8de7e76494f1b4c3f3510df51dad1cb2fe47bb33bc6c6811867d967683fa5f",
    "bench0/g3.report.json": "d46b6f8e4653a6f435bdd01504065981d2760038bfeff44cb7770c89cff4a171",
    "bench2.csv": "ae12d74ec39c795020ddda44bfaaf66888ff11a3971e185e6583c5cf5a92d769",
    "bench2/g1.report.json": "fc3454c0b1412deadffc68eafc6adfc6129b7c0b390168222e5ea80495c92b5c",
    "bench2/g2.report.json": "6e37f24c1142cbe59df4301bad082c6650bbe42dd9328326ec377d7da78ddd9b",
    "bench2/g3.report.json": "5164f299c2c552b657108b498c2505ee36145235f43e49bafbcbdcad97bbc1b8",
    "g1.balanced.model.json": "8106a230ee94ad6c1c82b68dd063f35bf0e723c5907f428c2074ddca36e6dfd3",
    "g1.events.jsonl": "2519632f393fa14e7bc0b5c02ace60f4615b4dc185d05802c16b924068d3ca80",
    "g1.gauged.jsonl": "384c7f2f9ab0742c5f5391087a4fd9f299d1974828ac1dbde494684cf91b98e5",
    "g1.gauged.report.json": "40a8887cca1464dfa41feaf64221dc2f302fa340a8dc75a5525518a847d5673e",
    "g1.model.json": "d8e29c094627bca54cd3c66f5a7ba11020caa70f3ad6b5828c4818f50f5d5520",
    "g1.plain.jsonl": "5cf6e923a3f034a4c111f10d7e686dd6f4aeca5a82eb5a6b56ad048d6d60f64d",
    "g1.plain.report.json": "268903137198c381994db0f17b81b6a24caaa635c5b2bccf2e19fa0398dc0c8e",
    "g1.seeded7.model.json": "5d2572f54e62e06da99a60004520280557f8fc212373ab8f4a297a02828139bc",
    "g2.balanced.model.json": "ba87cda8251bdb1ae436351a40ef5afab34639f83cb04ccc7f8f9c3a961cfe57",
    "g2.events.jsonl": "8634af77f077f7034a9f257f2e71eac5f4ab2bd3e407227b62dcd2803ab48ae9",
    "g2.gauged.jsonl": "23eee8bf8bc09fb1286d7401e5383ec5667f6a163afdd95ee443a1d441eae28f",
    "g2.gauged.report.json": "b0b7ab59abe94221ca04eedbf5a67a5d7081ad3cb45f3e7a9970501dd7c6400e",
    "g2.model.json": "dcd884df478f6cb4d8d95ef0c124663bfcf622adf796a5448508f67c99280543",
    "g2.plain.jsonl": "d2822691155225c025a1bd8d7a0b748ab34fbbb663c865c7585ca27a5a733479",
    "g2.plain.report.json": "43347be47959d29093d63c363e76f14ee6a90e328c01687d53811ac51dfa2f56",
    "g2.seeded7.model.json": "b62616c7562a769ad0faf5189678f10ecee771448d766ac208aaf428a3c9137d",
    "g3.balanced.model.json": "f97af92dbddbd27e63e608d7451329f4941169665c477c90ac04c452aee52bb7",
    "g3.events.jsonl": "88e1b13234892f2bbbb101e060b96bfec3c9e5993ceea95ff26a24af96818045",
    "g3.gauged.jsonl": "794361cae4d68a3eb817c4b5c156a8e96bbbcb5e9255aad6228568aae0a9c5ac",
    "g3.gauged.report.json": "d2ef964b5db1a6d0ac95e0f29f2982a0dc4a1a308a062484555f11f29c92e0b1",
    "g3.model.json": "a0d5832650c5e34f8fb6064c40fdaa31efa57b3f7115f202392363afb20d6d13",
    "g3.plain.jsonl": "645e58060932402610173f86dafc3ee210d1d28d59bc1113fe68c225755cb3d3",
    "g3.plain.report.json": "f3d378ff80914f550530f3b25b2a8fb9fd48da473a474d1772929c3c686a9ac8",
    "g3.seeded7.model.json": "f07247d79f79be10725894e805b1eb417224f2194cd9ee26768c93a0dfb12e24",
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
    for name in INSTANCES:
        for label, flags in POLICIES.items():
            model = tmp_path / f"{name}.{label}.model.json"
            run("compile", "--cnf", inst_dir / f"{name}.cnf", *flags, "--out", model)
            digests[model.name] = _sha(model.read_bytes())
    return digests


def test_cli_artifacts_match_pinned_digests(tmp_path, capsys, monkeypatch):
    assert cli_artifact_digests(tmp_path, capsys, monkeypatch) == EXPECTED


# One clause of each length 1-9 with alternating polarity, so every cascade
# shape of every policy meets negated and plain literals.
CONSTRUCTION_CNF = Cnf.of(9, [[v if v % 2 else -v for v in range(1, k + 1)] for k in range(1, 10)])
CONSTRUCTION_POLICIES = [
    ConstructionPolicy("chain"),
    ConstructionPolicy("balanced"),
    *(ConstructionPolicy("seeded_random", seed) for seed in range(20)),
]
CONSTRUCTION_DIGEST = "39a9e3602cbfabc3b9779cf88284bd8ac434a09f3ede76b06f3597fbb66147c3"


def test_construction_matches_pinned_digest():
    """compiled_to_json of CONSTRUCTION_CNF under chain, balanced and 20 seeds."""
    digest = hashlib.sha256()
    for policy in CONSTRUCTION_POLICIES:
        doc = compiled_to_json(*compile_cnf(CONSTRUCTION_CNF, policy), policy)
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == CONSTRUCTION_DIGEST


FLOAT_EXPECTED = {
    "plain": "5a3a4f5abffc8e733bd8970f823a20b663d6e99b0482ddaac7f7e1d769075f87",
    "gauged": "58c6591805a844295ca4172d9957e5e9d682189e5c0b70e9198b474fc15729a1",
}


def test_float_model_samples_match_pinned_digests(tmp_path):
    """`sample`, plain and with 3 gauges, over g1's chain model with every
    coefficient scaled by 0.1: energies of float models under gauges."""
    cnf = tmp_path / "g1.cnf"
    cnf.write_text(INSTANCES["g1"])
    model = tmp_path / "g1.model.json"
    assert main(["compile", "--cnf", str(cnf), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["h"] = [0.1 * v for v in doc["h"]]
    doc["J"] = [[i, j, 0.1 * v] for i, j, v in doc["J"]]
    doc["ground_bound"] *= 0.1
    doc["clause_ground_energies"] = [0.1 * e for e in doc["clause_ground_energies"]]
    model.write_text(json.dumps(doc, sort_keys=True) + "\n")
    digests = {}
    for kind, gauges in (("plain", "0"), ("gauged", "3")):
        out = tmp_path / f"{kind}.jsonl"
        assert main(["sample", "--model", str(model), "--cnf", str(cnf), "--seed", "3",
                     *SAMPLER, "--gauges", gauges, "--out", str(out)]) == 0
        digests[kind] = _sha(out.read_bytes())
    assert digests == FLOAT_EXPECTED


@pytest.mark.parametrize("gauges", ["0", "2"])
def test_file_pipeline_reproduces_bench_reports(tmp_path, monkeypatch, gauges):
    """`metrics` over `sample --seed _derived_seed(11, idx)` and `allsat --stable-output`
    events gives the bytes of each `bench --seed 11 --stable-output` report."""
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
            ("sample", "--model", f"{out}.model.json", "--cnf", cnf,
             "--seed", _derived_seed(11, idx), *SAMPLER, "--gauges", gauges,
             "--out", f"{out}.jsonl"),
            ("allsat", "--cnf", cnf, "--stable-output", "--out", f"{out}.events.jsonl"),
            ("metrics", "--cnf", cnf, "--model", f"{out}.model.json", "--samples",
             f"{out}.jsonl", "--events", f"{out}.events.jsonl", "--instance-id", name,
             "--out", f"{out}.report.json"),
        ):
            assert main([str(a) for a in argv]) == 0
        assert (tmp_path / f"{name}.report.json").read_bytes() == (
            reports / f"{name}.report.json"
        ).read_bytes(), name
