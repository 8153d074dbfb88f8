"""`simulate` writes the bytes recorded in perfbench/golden.json.

The benchmark checks these hashes too, but only when it runs; this test
runs the shipped scenario and each benchmark workload at the golden seed
in-process, so byte drift fails the suite.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from milnesea import cli, default_config_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _simulate(config: Path, out_dir: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["simulate", str(config), "--out-dir", str(out_dir)])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def test_default_scenario(tmp_path):
    assert _simulate(default_config_path(), tmp_path / "out") == \
        GOLDEN["default-scenario"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload(tmp_path, name):
    doc, _ = workloads.make(name, GOLDEN["seed"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    assert _simulate(config, tmp_path / "out") == GOLDEN["workloads"][name]
