"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import DETERMINISTIC, LAYER_UNITS  # noqa: E402

# Trial counts small enough for a quick test and large enough that every
# statistical check in worker.py still holds.
SMALL = {"skip_cells": 300, "uniform_reject": 2048, "sweep_cli": 200}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_counters_repeat_at_one_seed(workload):
    a, b = (run.run_round(workload, 7, True, SMALL[workload], 1, i, 150) for i in range(2))
    assert a["failed"] == b["failed"] == 0, a["problems"] + b["problems"]
    counters = [{name: rec["layers"][name] for name in DETERMINISTIC} for rec in (a, b)]
    assert counters[0] == counters[1]
    assert a["digests"] == b["digests"]


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_result_line_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.TRIALS)
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_UNITS)
    # uniform_reject has the shortest rounds at its default trial count
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "uniform_reject", "--seed", "0",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = _result(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[section]
        }
        env = json.loads(next(ln for ln in proc.stdout.splitlines() if ln.startswith("env "))[4:])
        assert env["golden_checked"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skip_cells", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
