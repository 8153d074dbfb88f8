"""The benchmark's tracer still sees every hot call of an integration.

perfbench/tracing.py counts RHS calls and coefficient reads by swapping
the module global ``milne.milne_rhs`` and the class attribute
``CoefficientProfile.value`` for wrappers. A refactor that reaches
either some other way (a hoisted coefficient, a direct kernel read)
would make the traced counts wrong without failing anything else; these
tests run `simulate` on osc-fixed and osc-adaptive under the tracer and
pin them.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

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
