"""Integrator checks against closed-form solutions.

Oracle values are frozen from independent high-precision evaluation of
the closed forms, not from the code under test.
"""

import math

import numpy as np
import pytest

from milnesea import solver
from milnesea.solver import (Trajectory, integrate_adaptive, integrate_fixed)

# y' = -y, y(0) = 1  =>  y(1) = 1/e
EXP_DECAY_AT_1 = 0.36787944117144233
# y'' = -y, (1, 0)  =>  (cos t, -sin t); values at t = 2.6
COS_2_6 = -0.8568887533689473
MSIN_2_6 = -0.5155013718214642


def decay(t, y):
    return -y


def harmonic(t, y):
    return np.array([y[1], -y[0]])


class TestFixed:
    def test_exponential_decay_value(self):
        traj = integrate_fixed(decay, [1.0], (0.0, 1.0), dt=1e-3)
        assert traj.completed
        assert traj.last_time == 1.0
        assert traj.last_state[0] == pytest.approx(EXP_DECAY_AT_1, rel=1e-10)

    def test_harmonic_values(self):
        traj = integrate_fixed(harmonic, [1.0, 0.0], (0.0, 2.6), dt=1e-3)
        assert traj.last_state[0] == pytest.approx(COS_2_6, rel=1e-9)
        assert traj.last_state[1] == pytest.approx(MSIN_2_6, rel=1e-9)

    def test_grid_is_uniform_and_lands_on_t1(self):
        traj = integrate_fixed(decay, [1.0], (0.0, 1.05), dt=0.1)
        assert len(traj) == 12
        assert traj.times[-1] == 1.05
        np.testing.assert_allclose(np.diff(traj.times)[:-1], 0.1, rtol=1e-12)
        # final partial step
        assert np.diff(traj.times)[-1] == pytest.approx(0.05)

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (2e-3, 1e-3):
            traj = integrate_fixed(harmonic, [1.0, 0.0], (0.0, 20.0), dt=dt)
            exact = np.cos(traj.times)
            errs.append(np.max(np.abs(traj.states[:, 0] - exact)))
        ratio = errs[0] / errs[1]
        assert 13.0 < ratio < 19.0

    def test_blowup_recorded_and_reported(self):
        # y' = y^2 from 1 diverges at t = 1
        traj = integrate_fixed(lambda t, y: y * y, [1.0], (0.0, 2.0), dt=1e-4)
        assert traj.status == solver.ABORTED_BLOWUP
        assert "exceeded" in traj.message
        assert np.all(np.isfinite(traj.states))
        # the guard trips within a few steps of the pole at t = 1
        assert 0.99 < traj.last_time < 1.01
        assert traj.states[-1, 0] > 1e6  # offending state is kept

    def test_custom_threshold(self):
        traj = integrate_fixed(lambda t, y: y, [1.0], (0.0, 10.0), dt=1e-2,
                               blowup_threshold=100.0)
        assert traj.status == solver.ABORTED_BLOWUP
        # e^t crosses 100 at t = ln(100) = 4.605...
        assert traj.last_time == pytest.approx(math.log(100.0), abs=0.02)

    def test_nonfinite_rhs_aborts_without_poisoning(self):
        def bad(t, y):
            return np.array([math.nan]) if t > 0.5 else -y

        traj = integrate_fixed(bad, [1.0], (0.0, 1.0), dt=1e-2)
        assert traj.status == solver.ABORTED_BLOWUP
        assert "non-finite" in traj.message
        assert np.all(np.isfinite(traj.states))

    def test_oversized_grid_rejected_before_allocation(self):
        def never(t, y):
            raise AssertionError("no step may be taken")

        with pytest.raises(ValueError, match="1000000000000000 steps"):
            integrate_fixed(never, [1.0], (0.0, 1e12), dt=1e-3)
        # one step over the limit, counted exactly
        with pytest.raises(ValueError, match="10000001 steps"):
            integrate_fixed(never, [1.0], (0.0, solver.DEFAULT_MAX_STEPS + 1.0),
                            dt=1.0)
        with pytest.raises(ValueError, match="10000001 steps"):
            integrate_fixed(never, [1.0], (0.0, solver.DEFAULT_MAX_STEPS + 0.5),
                            dt=1.0)

    def test_rejects_bad_span_and_dt(self):
        with pytest.raises(ValueError):
            integrate_fixed(decay, [1.0], (1.0, 0.0))
        with pytest.raises(ValueError):
            integrate_fixed(decay, [1.0], (0.0, 1.0), dt=-0.1)
        with pytest.raises(ValueError):
            integrate_fixed(decay, [math.inf], (0.0, 1.0))


class TestAdaptive:
    def test_exponential_decay_tracks_tolerance(self):
        traj = integrate_adaptive(decay, [1.0], (0.0, 1.0),
                                  rtol=1e-9, atol=1e-12)
        assert traj.completed
        assert traj.times[0] == 0.0
        assert traj.last_time == 1.0
        assert traj.last_state[0] == pytest.approx(EXP_DECAY_AT_1, rel=1e-8)

    def test_dense_output_matches_analytic(self):
        t_eval = np.linspace(0.0, 2.6, 301)
        traj = integrate_adaptive(harmonic, [1.0, 0.0], (0.0, 2.6),
                                  rtol=1e-9, atol=1e-12, t_eval=t_eval)
        assert traj.completed
        np.testing.assert_array_equal(traj.times, t_eval)
        np.testing.assert_allclose(traj.states[:, 0], np.cos(t_eval),
                                   atol=1e-7)
        np.testing.assert_allclose(traj.states[:, 1], -np.sin(t_eval),
                                   atol=1e-7)

    def test_agrees_with_fixed_solver(self):
        # dual-route check: two independent steppers, same problem. A
        # dyadic step keeps the two time grids exactly aligned. The
        # tolerance allows for the adaptive controller's per-step error
        # accumulating over a few hundred steps.
        dt = 2.0 ** -10
        t_eval = np.linspace(0.0, 5.0, 11)  # multiples of 0.5, on both grids
        fixed = integrate_fixed(harmonic, [0.3, -0.2], (0.0, 5.0), dt=dt)
        adap = integrate_adaptive(harmonic, [0.3, -0.2], (0.0, 5.0),
                                  rtol=1e-9, atol=1e-12, t_eval=t_eval)
        idx = np.searchsorted(fixed.times, t_eval)
        np.testing.assert_array_equal(fixed.times[idx], t_eval)
        gap = np.abs(fixed.states[idx] - adap.states)
        assert np.max(gap) < 5e-7
        # and both routes sit on the closed form itself
        exact = np.stack([0.3 * np.cos(t_eval) - 0.2 * np.sin(t_eval),
                          -0.3 * np.sin(t_eval) - 0.2 * np.cos(t_eval)], axis=1)
        assert np.max(np.abs(fixed.states[idx] - exact)) < 1e-10
        assert np.max(np.abs(adap.states - exact)) < 5e-7

    def test_t_eval_validation(self):
        with pytest.raises(ValueError):
            integrate_adaptive(decay, [1.0], (0.0, 1.0), t_eval=[0.0, 1.5])
        with pytest.raises(ValueError):
            integrate_adaptive(decay, [1.0], (0.0, 1.0), t_eval=[0.5, 0.25])

    def test_blowup_time_close_to_truth(self):
        traj = integrate_adaptive(lambda t, y: y * y, [1.0], (0.0, 2.0),
                                  rtol=1e-10, atol=1e-12)
        assert traj.status == solver.ABORTED_BLOWUP
        # threshold 1e6 is crossed at t = 1 - 1e-6
        assert traj.last_time == pytest.approx(1.0 - 1e-6, abs=1e-4)
        assert np.all(np.isfinite(traj.states))

    def test_step_limit(self):
        traj = integrate_adaptive(harmonic, [1.0, 0.0], (0.0, 100.0),
                                  max_steps=10)
        assert traj.status == solver.ABORTED_STEP_LIMIT
        assert "10" in traj.message

    def test_nonfinite_rhs_at_start_gives_empty_trajectory(self):
        traj = integrate_adaptive(lambda t, y: np.array([math.nan]),
                                  [1.0], (0.0, 1.0))
        assert traj.status == solver.ABORTED_BLOWUP
        assert len(traj) == 0


class TestTrajectory:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))

    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))

    def test_aborted_needs_message(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.zeros((1, 1)),
                       status=solver.ABORTED_BLOWUP)

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.zeros((1, 1)), status="done")
