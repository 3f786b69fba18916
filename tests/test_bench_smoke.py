"""A short run of each benchmark workload through perfbench/run.py, as the
benchmark runs it: the last line must be a verdict that the run was correct,
that no operation failed and that it reports the declared end-to-end
metrics. About 10 s for the three workloads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [wl["name"] for wl in BENCHMARK["workloads"]])
def test_benchmark_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True, proc.stdout[-2000:]
    assert verdict["failed"] == 0
    assert list(verdict["metrics"]) == [metric["name"] for metric in BENCHMARK["end_to_end"]]
