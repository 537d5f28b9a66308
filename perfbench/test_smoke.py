"""Smoke test of the benchmark: tiny sizes, the same checks and every metric.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# BENCHMARK.json names the workloads that are measured; all four stay runnable.
WORKLOADS = ["paths_wide", "passage_deep", "drift_lab", "cli_cold"]
SEED = 7


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    # --seconds 0 runs exactly one pass per loop, so the outcome is fixed by the seed.
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = doc["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, entry["name"]
    assert 0 <= doc["failed"] <= doc["attempted"] and doc["attempted"] >= 1
    assert doc["correct"] == (doc["failed"] == 0)

    result = json.loads((HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json")
                        .read_text())
    assert result["environment"]["seed"] == SEED
    assert doc["failed"] == 0, result["failed_operations"]
    # The known O(dt) drift bias is measured apart, on the probes predicted to carry it.
    assert result["bias_probes"]
    assert all(abs(b["predicted_z"]) > 0.1 for b in result["bias_probes"])


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
