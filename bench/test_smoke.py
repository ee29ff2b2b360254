"""Pin the benchmark's output schema: every workload at toy size.

Run with ``python -m pytest bench -q`` (tier-1's ``testpaths`` stays
``tests``; this suite belongs to the benchmark, not to the package).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
from run import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "toy", "--out", str(tmp_path / "result.json")],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert CONTRACT["paths"] == ["bench"]
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_schema(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    specs = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:  # an end-to-end metric is never 0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    doc = json.loads((tmp_path / "result.json").read_text())
    assert {"cpu_count", "loadavg_1min_at_start", "python", "numpy", "scipy",
            "git_sha", "seed"} <= set(doc["environment"])
    assert all({"n", "median", "q1", "q3"} <= set(row)
               for row in doc["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale-map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _row(values):
    from harness import summarize

    return {**summarize(values), "values": values}


def test_compare_verdicts():
    steady = _row([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict(steady, _row([1.03, 1.04, 1.02, 1.03, 1.05]),
                           0.10, "lower")[0] == "ok"
    assert compare.verdict(steady, _row([1.30, 1.31, 1.29, 1.30, 1.32]),
                           0.10, "lower")[0] == "worse"
    noisy = _row([0.8, 1.4, 1.0, 1.2, 0.9])
    assert compare.verdict(steady, noisy, 0.10, "lower")[0] == "unresolved"
    assert compare.verdict(steady, _row([0.5, 0.9, 0.6, 0.8, 0.7]),
                           0.10, "lower")[0] == "ok"  # every run better
    assert compare.verdict(steady, _row([0.80, 0.81, 0.79, 0.80, 0.82]),
                           0.10, "higher")[0] == "worse"
