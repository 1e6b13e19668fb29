"""Quick-mode runs of the benchmark, so the harness cannot rot.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "0", "--quick", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
