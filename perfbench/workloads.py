"""Benchmark workloads: `simulate` scenario configs drawn from a seed.

Each workload keeps one regime and one layer mix whatever the seed; the
seed only moves inputs inside ranges that keep it there (see README.md
for why each workload exists). ``scale`` shrinks the size for the smoke
test; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import math
import random

WHY = {
    "osc-fixed": "oscillatory regime under fixed-step RK4: the integrator "
                 "and milne_rhs on constant coefficient profiles",
    "osc-adaptive": "same regime under Dormand-Prince 5(4): the stage sums "
                    "and step control around the same RHS",
    "sweep-bumps": "supplied dynamical params, no integration: envelope and "
                   "transition per grid point on bump profiles, CSV export",
    "env-tables": "spectrum and bathymetry tables only: per-sample hashing "
                  "and the largest CSV export",
}
NAMES = tuple(WHY)

OSC_T0 = -60.0
OSC_STRIDE = 100
OSC_DT = 1e-3   # the fixed step; also solver.DEFAULT_DT, the adaptive grid step


def _grid_points(span: float, h: float) -> int:
    return int(math.floor(span / h + 1e-9)) + 1


def _osc(rng: random.Random, method: str, scale: float):
    # the test suite's oscillatory regime; p0 stays near the amplitude so
    # the adaptive step count moves by about one percent across seeds
    span = (12.0 if method == "fixed" else 3.0) * scale
    solver = ({"method": "fixed", "dt": OSC_DT} if method == "fixed"
              else {"method": "adaptive", "rtol": 1e-9})
    doc = {"signal": {"amplitude": 0.01, "wave_number": 0.1},
           "medium": {"beta": {"kind": "constant", "base": 0.1}},
           "time": {"t0": OSC_T0, "t1": OSC_T0 + span, "stride": OSC_STRIDE},
           "solver": solver,
           "initial_condition": {"p0": rng.uniform(0.009, 0.011)},
           "outputs": ["trajectory", "summary", "envelope", "transition"]}
    grid = _grid_points(span, OSC_STRIDE * OSC_DT)
    rows = {"trajectory": (round(span / OSC_DT) + 1 if method == "fixed"
                           else None),
            "summary": 1, "envelope": grid, "transition": 2 * grid}
    return doc, rows


def _sweep(rng: random.Random, scale: float):
    # t >= 0 and beta >= its positive base keep the envelope denominator
    # away from zero, so no seed produces a singularity skip
    span = 1.0 * scale
    dt = 1e-4
    doc = {"signal": {"amplitude": 1.0, "wave_number": 0.1},
           "medium": {
               "omega": {"kind": "gaussian-bump", "base": 1.0,
                         "amplitude": 0.5, "width": 0.1 * span,
                         "center": rng.uniform(0.3, 0.7) * span},
               "beta": {"kind": "sech2-bump", "base": 0.3,
                        "amplitude": 0.4, "width": 0.05 * span,
                        "center": rng.uniform(0.3, 0.7) * span}},
           "time": {"t0": 0.0, "t1": span, "stride": 1},
           "solver": {"dt": dt},
           "dynamical_params": {"e_m": rng.uniform(1.0, 2.0),
                                "delta": rng.uniform(-1.0, 1.0),
                                "tau": rng.uniform(0.5, 1.5)},
           "outputs": ["summary", "envelope", "transition"]}
    grid = _grid_points(span, dt)
    return doc, {"summary": 1, "envelope": grid, "transition": 2 * grid}


def _env(rng: random.Random, scale: float):
    samples = max(2, round(100_000 * scale))
    length = 100_000.0 * scale
    dx = 0.5
    doc = {"environment": {
               "surface_spectrum": {"wind_speed": rng.uniform(5.0, 20.0),
                                    "samples": samples},
               "bathymetry": {"zeta_max": 5.0, "hill_spacing": 100.0,
                              "length": length, "dx": dx,
                              "seed": rng.randrange(2 ** 32)}},
           "outputs": ["spectrum", "bathymetry"]}
    return doc, {"spectrum": samples, "bathymetry": _grid_points(length, dx)}


def make(name: str, seed: int, scale: float = 1.0):
    """(config document, expected CSV data rows per product) for a workload.

    An expected count of None means the count depends on the solver's
    step control and is only checked for repeatability.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "osc-fixed":
        return _osc(rng, "fixed", scale)
    if name == "osc-adaptive":
        return _osc(rng, "adaptive", scale)
    if name == "sweep-bumps":
        return _sweep(rng, scale)
    if name == "env-tables":
        return _env(rng, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
