"""`simulate` writes the bytes recorded in perfbench/golden.json.

The benchmark checks these hashes too, but only when it runs; this test
runs the shipped scenario and each benchmark workload at the golden seed
in-process, so byte drift fails the suite. A failed comparison names
this host's fingerprint beside the one the hashes were recorded on
(hostprint.py).
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hostprint import mismatch

from milnesea import cli, default_config_path
from milnesea.milne import integrate_milne
from milnesea.scenario import load_config

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
        GOLDEN["default-scenario"], mismatch()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload(tmp_path, name):
    doc, _ = workloads.make(name, GOLDEN["seed"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    assert _simulate(config, tmp_path / "out") == \
        GOLDEN["workloads"][name], mismatch()


# no FMA in OpenBLAS and no AVX-512 loops in numpy, as on an older x86-64
PORTABLE_HOST = {"OPENBLAS_CORETYPE": "Prescott",
                 "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the forced kernels and SIMD levels are x86-64's")
@pytest.mark.parametrize("name, files", [
    ("osc-fixed", ["envelope.csv", "result.json", "summary.csv",
                   "trajectory.csv"]),
    ("env-tables", ["bathymetry.csv", "result.json"])])
def test_bytes_that_do_not_depend_on_the_host(tmp_path, name, files):
    # these files must not move with the BLAS kernel or numpy's SIMD
    # level; the others (transition.csv, spectrum.csv) still do
    doc, _ = workloads.make(name, GOLDEN["seed"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    here = _simulate(config, tmp_path / "here")
    there = tmp_path / "there"
    subprocess.run(
        [sys.executable, "-m", "milnesea.cli", "simulate", str(config),
         "--out-dir", str(there)], check=True, capture_output=True,
        timeout=120, env={**os.environ, **PORTABLE_HOST,
                          "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert {f: hashlib.sha256((there / f).read_bytes()).hexdigest()
            for f in files} == {f: here[f] for f in files}


def integrate(config):
    return integrate_milne(config.signal, config.medium,
                           (config.t0, config.t1),
                           ic=config.initial_condition, method=config.method,
                           dt=config.dt, rtol=config.rtol, atol=config.atol,
                           blowup_threshold=config.blowup_threshold)


def counters(traj):
    return traj.accepted, traj.rejected, traj.retried, traj.rhs_evals


def test_fixed_counters():
    # both ends of the generated RK4 run: osc-fixed completes, and the
    # shipped scenario stops at the guard with the offending state recorded
    doc, _ = workloads.make("osc-fixed", GOLDEN["seed"])
    traj = integrate(load_config(json.dumps(doc)))
    assert traj.completed
    assert counters(traj) == (12000, 0, 0, 48000)
    traj = integrate(load_config(default_config_path().read_text()))
    assert traj.status == "aborted-blowup"
    assert traj.message.startswith("|state| exceeded")
    assert counters(traj) == (1321, 0, 0, 5284)


def test_osc_adaptive_counters():
    # pinned with the golden bytes: a change to the step control or the
    # FSAL derivative moves these counts, and no output file carries them
    doc, _ = workloads.make("osc-adaptive", GOLDEN["seed"])
    traj = integrate(load_config(json.dumps(doc)))
    assert traj.completed
    assert (traj.accepted, traj.rejected, traj.retried) == (5731, 667, 0), \
        mismatch()
    assert traj.rhs_evals == 1 + 6 * (5731 + 667) == 38389
