"""Property: the two integrators agree on drawn Milne problems.

The fixed-step RK4 and the adaptive Dormand-Prince 5(4) integrators are
independent code, each the other's oracle. On a drawn scenario cut to a
span of 1, RK4 at dt and dt/2 gives a Richardson estimate of its own
error; where that shows RK4 resolved, the adaptive end state at a tight
tolerance must land within that error plus a multiple of its own
tolerance.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from strategies import documents  # noqa: E402

from milnesea.milne import integrate_milne  # noqa: E402
from milnesea.scenario import load_config  # noqa: E402

DT = 1e-3
RTOL, ATOL = 1e-10, 1e-12
RESOLVED = 1e-6  # largest Richardson estimate, relative to max |y(t1)|


def integrate(config, **solver):
    return integrate_milne(config.signal, config.medium,
                           (config.t0, config.t0 + 1.0),
                           ic=config.initial_condition,
                           blowup_threshold=config.blowup_threshold, **solver)


def disagreement(doc):
    """Largest |adaptive - RK4| at t0 + 1 over its bound, or None where
    RK4 does not complete or is not resolved."""
    config = load_config(json.dumps(doc))
    coarse = integrate(config, method="fixed", dt=DT)
    fine = integrate(config, method="fixed", dt=DT / 2)
    if not (coarse.completed and fine.completed):
        return None
    # RK4's error at dt is about 16/15 of the difference; at dt/2, 1/15.
    # Relative to the end state, not the whole run: an overdamped RK4 run
    # decays to ~0 at both steps, a tiny difference next to |y0|
    richardson = 16 / 15 * np.abs(fine.states[-1] - coarse.states[-1])
    if np.max(richardson) > RESOLVED * np.max(np.abs(fine.states[-1])):
        return None
    adaptive = integrate(config, method="adaptive", rtol=RTOL, atol=ATOL)
    assert adaptive.completed, adaptive.message
    size = np.max(np.abs(fine.states))
    # an error of atol made while |y| is small grows with the solution
    growth = size / max(np.max(np.abs(fine.states[0])), ATOL)
    bound = richardson / 15 + 1e3 * (ATOL * max(1.0, growth) + RTOL * size)
    return np.max(np.abs(adaptive.states[-1] - fine.states[-1]) / bound)


# Derandomized: fresh draws hit two known faults of the adaptive solver,
# each about once in 1,000 draws. One is the FSAL alias (the pinned case
# below). The other is a step that jumps over an omega bump narrower than
# itself, on a problem slow enough to grow the step to ~0.1.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents())
def test_fixed_and_adaptive_agree(doc):
    ratio = disagreement(doc)
    assert ratio is None or ratio <= 1.0


# a draw the property found: the ratio is 15.6 with the alias and 0.33
# with f_new = k[6].copy()
FSAL_DRAW = {
    "signal": {"amplitude": 4.080731115907121,
               "sound_speed": 3336.3255303581923, "wave_number": 0.5},
    "medium": {"omega": {"kind": "table", "table": [[-15.08, 0.1]]},
               "beta": {"kind": "table", "table": [[-15.08, 0.1]]}},
    "time": {"t0": -100.0, "t1": -99.0},
    "initial_condition": {"p0": -1.4676534343474863,
                          "p_dot0": 7.994329553940464}}


@pytest.mark.xfail(strict=True, reason="FSAL stage aliases the stage "
                   "buffer: after a rejected attempt the next step starts "
                   "from the rejected trial's last stage")
def test_agree_on_a_draw_with_rejections():
    assert disagreement(FSAL_DRAW) <= 1.0


# the other fault, seen once in 2,000 fresh draws: the slow dynamics grow
# the step to ~0.53, so the adaptive run crosses the omega bump of width
# 0.01 in about a dozen steps and ends with p' = 6.72e-7 against 7.83e-7
# from RK4, a ratio of ~100
NARROW_BUMP_DRAW = {
    "signal": {"amplitude": 0.001, "sound_speed": 2.00001,
               "wavelength": 9350.92},
    "medium": {"omega": {"kind": "gaussian-bump", "base": 1.0,
                         "amplitude": 1.5035, "center": 0.71481,
                         "width": 0.01},
               "beta": {"kind": "constant", "base": 0.0}},
    "time": {"t0": 1e-15}}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="nothing caps the adaptive step by the medium's "
                   "feature width: a step jumps over a bump narrower than "
                   "itself and the run still completes")
def test_agree_across_a_narrow_bump():
    assert disagreement(NARROW_BUMP_DRAW) <= 1.0
