"""Property: every accepted config runs clean, end to end.

`simulate` on a drawn config exits 0 or 2 and lets no exception or
warning escape (pytest turns every warning into an error). Every number
it writes is finite, result.json is strict JSON, and every skip says why.
"""

import json
import math
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from strategies import documents  # noqa: E402

from milnesea import milne, solver  # noqa: E402
from milnesea.cli import main  # noqa: E402

# CSV fields that are words, not numbers
WORDS = {"true", "false", "composed", "expanded"}


def refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=150, deadline=None)
@given(documents())
def test_every_drawn_config_runs_clean(doc):
    # for run time only: a short span, no tolerance tighter than 1e-8, and
    # at most 5,000 adaptive step attempts. A stiff draw (c k |t| omega^2
    # up to ~1e8) can otherwise take a million steps; past the cap it ends
    # as an aborted-step-limit trajectory, which must run clean too.
    doc["time"]["t1"] = min(doc["time"]["t1"], doc["time"]["t0"] + 5.0)
    doc["solver"]["rtol"] = max(doc["solver"]["rtol"], 1e-8)
    capped = partial(solver.integrate_adaptive, max_steps=5_000)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(milne, "integrate_adaptive", capped):
        config, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        code = main(["simulate", str(config), "--out-dir", str(out)])
        assert code in (0, 2)
        result = json.loads((out / "result.json").read_text(),
                            parse_constant=refuse)
        skipped = []
        for name, product in result["products"].items():
            if product["status"] == "skipped":
                assert isinstance(product["reason"], str) and product["reason"]
                skipped.append(name)
                continue
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 1 + product["rows"]
            for line in lines[1:]:
                for value in line.split(","):
                    assert value in WORDS or math.isfinite(float(value)), \
                        (name, line)
        assert (code == 2) == bool(skipped)
