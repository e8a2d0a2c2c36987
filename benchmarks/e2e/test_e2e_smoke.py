"""Smoke test of the end-to-end benchmark (``--scale smoke``).

Run from the repository root:
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_matches_the_catalogue() -> None:
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} \
        == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        (name, unit, "higher" if name in metrics.HIGHER_IS_BETTER else "lower")
        for name, unit, _ in metrics.PER_LAYER]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_and_verifies(
        workload: str, trace: int, tmp_path: Path) -> None:
    proc = _run(ROOT, HERE / "run.py", "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
                "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    names = [m["name"] for m in
             BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == names
    assert [line.split()[:2] for line in lines] == [[workload, n] for n in names]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(v is not None and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload.startswith("sweep"):
        # The wrapped layers account for the column's time.
        assert values["obs.span_coverage"] >= 90.0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, bench / "run.py", "--workload", "sweep_exact")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
