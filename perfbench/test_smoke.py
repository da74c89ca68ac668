"""Smoke test of the benchmark itself at a tiny config (hw 16, hidden 4).

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced, and checks that each end-to-end
metric appears with its unit, that each per-layer metric is measured on some
workload, and that the benchmark refuses to run without the foucast sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Named end-to-end metrics printed in the table, by workload kind.
NAMED = {
    "train": ["setup_s", "train_samples_per_s", "p1_step_s_p50", "p2_step_s_p50",
              "step_s_tail", "loss_end", "peak_rss_mb", "ops_attempted", "ops_failed"],
    "eval": ["setup_s", "eval_events_per_s", "eval_mse", "eval_csi_avg", "predict_s_p50",
             "predict_s_tail", "peak_rss_mb", "ops_attempted", "ops_failed"],
}


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    lines, result = parse(run(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name in NAMED["eval" if workload.startswith("eval") else "train"]:
        assert table.get(name), f"{name} missing from the table"
    record = json.loads(next(x for x in lines if x.startswith("run_record "))[len("run_record "):])
    for key in ("nproc", "numpy", "scipy", "blas", "eval_workers", "os_threads_peak",
                "seed", "git_revision", "src_lines", "env_removed"):
        assert key in record


@pytest.fixture(scope="module")
def traced():
    return {w: parse(run(w, 1))[1]["metrics"] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_layer_counts(traced, workload):
    calls = traced[workload]
    if workload.startswith("eval"):
        assert calls["metrics.ssim.calls"]["value"] > 0
        assert calls["evaluate.workers"]["value"] >= 1
    else:
        assert calls["autodiff.op.conv2d.calls"]["value"] > 0
        assert 0 < calls["autodiff.cotangent_useful_ratio"]["value"] <= 1
    assert calls["synth.synth_dataset.calls"]["value"] == pytest.approx(1)


def test_every_per_layer_metric_is_measured_somewhere(traced):
    # The tracer reports what BENCHMARK.json declares; a declared name that no
    # span or counter feeds would read 0 on every workload.
    for m in SPEC["per_layer"]:
        values = [traced[w][m["name"]] for w in WORKLOADS]
        assert all(v["unit"] == m["unit"] for v in values)
        assert any(v["value"] != 0 for v in values), f"{m['name']} is 0 on every workload"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
