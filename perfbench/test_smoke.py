"""Smoke test: every workload at a tiny size reports every metric.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "all", "--seed", "7", "--seconds", "0",
                         "--trace", str(trace), "--scale", "0.05"])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_unit(trace, key):
    result = _run(trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.NAMES)
    for workload in workloads.NAMES:
        for spec in SPEC[key]:
            metric = result["metrics"][f"{workload}.{spec['name']}"]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_seed_draws_the_same_inputs():
    for name in workloads.NAMES:
        assert workloads.make(name, 3) == workloads.make(name, 3)
        assert workloads.make(name, 3) != workloads.make(name, 4)
