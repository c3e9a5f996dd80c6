"""The benchmark's declared metrics and its one-line result format.

Run with: python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _, _ in PER_LAYER]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_query_run_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "query", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
