"""The benchmark's tracer still sees every hot call of an integration.

perfbench/tracing.py counts RHS calls and coefficient reads by swapping
the module global ``milne.milne_rhs`` and the class attribute
``CoefficientProfile.value`` for wrappers. A refactor that reaches
either some other way (a hoisted coefficient, a direct read of the
scalar or the array kernel) would make the traced counts wrong without
failing anything else; these tests run `simulate` on osc-fixed,
osc-adaptive and sweep-bumps under the tracer and pin them. The export
spans are timed at ``cli.export_csv`` and ``cli.export_json``, so
`simulate` must call each through the module global, once per product
and once.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from milnesea import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def traced(tmp_path, name):
    """The tracer's per-boundary aggregates of `simulate` on workload name."""
    doc, _ = workloads.make(name, 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    with tracing.Tracer() as tracer, \
            contextlib.redirect_stdout(io.StringIO()):
        cli.main(["simulate", str(config), "--out-dir", str(tmp_path / "out")])
    return tracer.calls


def test_osc_fixed_calls_reach_the_traced_names(tmp_path):
    calls = traced(tmp_path, "osc-fixed")
    assert calls["solver.integrate_fixed"][:3:2] == [1, 12_000]
    assert calls["milne.rhs"][0] == 48_000
    assert calls["medium.coeff"][0] == 96_006


def test_osc_adaptive_calls_reach_the_traced_names(tmp_path):
    calls = traced(tmp_path, "osc-adaptive")
    assert calls["solver.integrate_adaptive"][:3:2] == [1, 5_731]
    assert calls["milne.rhs"][0] == 38_389
    assert calls["medium.coeff"][0] == 76_784


def test_sweep_bumps_array_reads_reach_the_traced_name(tmp_path):
    # the envelope and the transition sweep each read omega and beta once,
    # as arrays over the whole grid
    calls = traced(tmp_path, "sweep-bumps")
    assert calls["medium.coeff"][0] == 4


@pytest.mark.parametrize("name", ["osc-fixed", "sweep-bumps"])
def test_exports_reach_the_traced_names(tmp_path, name):
    # the tracer times each export at cli.export_csv and cli.export_json;
    # the run's CSV schedule must leave one call per product in place
    calls = traced(tmp_path, name)
    doc, _ = workloads.make(name, 0)
    assert calls["scenario.export_csv"][0] == len(doc["outputs"])
    assert calls["scenario.export_json"][0] == 1
