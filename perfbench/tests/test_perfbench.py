"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

WORKLOADS = bench_run.WORKLOADS


def _run(capsys, workload, trace):
    code = bench_run.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(capsys, workload):
    code, lines, result = _run(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = dict(bench_run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    for name, unit in [*want.items(), ("fail_ratio", "1")]:
        assert f"  {name} " in text and f" {unit}" in text
    assert re.search(r"job_s\.tail .* s  \(p[0-9.]+ of n=\d+ jobs\)", text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(capsys, workload):
    code, lines, result = _run(capsys, workload, 1)
    assert code == 0 and result["correct"]
    want = {k: unit for k, (unit, _) in bench_run.PER_LAYER.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # the library spans account for the traced job time
    assert abs(metrics["trace.self_sum_ratio"] - 1.0) <= 0.1
    # each workload carries the layers of the two folded-in job sets
    if workload == "code_audit":
        assert metrics["codesim.joint_typicality_decode.per_output"] > 0
        assert metrics["concentration.concentration_report.calls"] > 0
        assert metrics["probkit.sample_typical.accept_ratio"] > 0
    else:
        assert metrics["optimizer.achievable_region_estimate.calls"] > 0
        assert metrics["regions.verify_convexhull_lemma.calls"] > 0


def test_perturbed_leakage_fails_the_audit(capsys, monkeypatch):
    from wtmac import codesim

    original = codesim.exact_leakage
    monkeypatch.setattr(codesim, "exact_leakage",
                        lambda code, w_e=None: original(code, w_e) + 1e-6)
    code, lines, result = _run(capsys, "code_audit", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    ratio_line = next(line for line in lines if "fail_ratio" in line)
    assert float(ratio_line.split()[1]) > 0
    assert any("MI oracle" in line for line in lines)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(bench_run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == bench_run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "region_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("perfbench: ")
