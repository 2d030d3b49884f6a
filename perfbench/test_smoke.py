"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

For every workload: every metric BENCHMARK.json names is printed with
its unit, the output checks pass, and two traced runs with the same
seed give identical exact counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT = ("strategies.classes", "strategies.empty_rules", "counting.table_cells",
         "counting.max_count_bits", "counting.samples",
         "algebra.result_coeff_bits", "paths.paths_scanned")


def run(workload, trace, seed=7):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["metrics"].keys() == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, 0)
    check_metrics(result, BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    check_metrics(first, BENCH["per_layer"])
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["strategies.classes"]["value"] > 0


def test_no_package_fails(tmp_path):
    """Without src/motzkin the benchmark exits non-zero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "pools.json").write_text(
        (ROOT / "perfbench" / "pools.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
