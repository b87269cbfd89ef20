"""Self-tests of the benchmark harness. Run from the repository root:

    python3 -m pytest -q bench/tests

They run every workload at a tiny shape through the same code path as a
real run, so they take a few seconds each.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(w):
    return dataclasses.replace(w, vocab=64, iters=10)


def run(w, tmp_path, trace=False, seed=3):
    return harness.run_workload(tiny(w), seed, 0.5, trace, ROOT, tmp_path)


def test_metric_names_are_well_formed():
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"])
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    result, report, _ = run(WORKLOADS[name], tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, report, traced = run(WORKLOADS["pipeline-text"], tmp_path, trace=True)
    assert result["correct"], report["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["trace.digests_match"]["value"] == 1.0
    assert result["metrics"]["embeddings.read_text.calls"]["value"] == 6
    assert traced and all(r["spans"] for r in traced)


def test_corrupted_code_file_makes_error_rate_positive(tmp_path, monkeypatch):
    import codecomp.codec

    write = codecomp.codec.write_code_file

    def corrupting_write(path, codes, vocab):
        bad = codes.codes.copy()
        bad[0, 0] = (bad[0, 0] + 1) % codes.K
        write(path, codecomp.codec.CodeMatrix(codes.M, codes.K, bad), vocab)

    monkeypatch.setattr(codecomp.codec, "write_code_file", corrupting_write)
    result, report, _ = run(WORKLOADS["train-small"], tmp_path)
    assert not result["correct"]
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert any("stats_matches_hard_forward" in f for f in report["failures"])


def test_traced_run_restores_module_attributes(tmp_path):
    cc = harness.import_program(ROOT / "src")
    before = {(mod, attr): getattr(getattr(cc, mod), attr)
              for mod, attr, _ in tracing.PATCHES}
    run(WORKLOADS["train-small"], tmp_path, trace=True)
    after = {(mod, attr): getattr(getattr(cc, mod), attr)
             for mod, attr, _ in tracing.PATCHES}
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("fmt,sha256", [
    ("binary", "9c70aaca7698f13d3ae5221be968e4590167db5890d9065d06cb0539002a8e4a"),
    ("text", "32b77cabc90b92c0413787f9d42ebe4e4a19414f5841fc0b3a611adc0de30c65"),
])
def test_fixture_bytes_are_pinned(fmt, sha256, tmp_path):
    # The digests are those of codecomp.synthetic plus the program's own
    # writers at the commit that added the benchmark; the generator must keep
    # producing them whatever later changes do to the program.
    import fixtures

    args = ["--out", str(tmp_path), "--seed", "7", "--M", "4", "--K", "8",
            "--H", "16", "--vocab", "50", "--noise", "0.01", "--format", fmt]
    assert fixtures.main(args) == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["sha256"] == sha256 == fixtures.sha256_file(tmp_path / meta["file"])
