"""Integrator checks against closed-form solutions.

Oracle values are frozen from independent high-precision evaluation of
the closed forms, not from the code under test.
"""

import json
import math

import numpy as np
import pytest

from milnesea import default_config_path, solver
from milnesea.milne import integrate_milne, milne_rhs
from milnesea.scenario import load_config
from milnesea.solver import (Trajectory, integrate_adaptive, integrate_fixed)

# y' = -y, y(0) = 1  =>  y(1) = 1/e
EXP_DECAY_AT_1 = 0.36787944117144233
# y'' = -y, (1, 0)  =>  (cos t, -sin t); values at t = 2.6
COS_2_6 = -0.8568887533689473
MSIN_2_6 = -0.5155013718214642


def decay(t, y):
    return (-y[0],)


def harmonic(t, y):
    return np.array([y[1], -y[0]])


class TestFixed:
    def test_exponential_decay_value(self):
        traj = integrate_fixed(decay, [1.0], (0.0, 1.0), dt=1e-3)
        assert traj.completed
        assert traj.last_time == 1.0
        assert traj.states[-1][0] == pytest.approx(EXP_DECAY_AT_1, rel=1e-10)

    def test_harmonic_values(self):
        traj = integrate_fixed(harmonic, [1.0, 0.0], (0.0, 2.6), dt=1e-3)
        assert traj.states[-1][0] == pytest.approx(COS_2_6, rel=1e-9)
        assert traj.states[-1][1] == pytest.approx(MSIN_2_6, rel=1e-9)

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
        traj = integrate_fixed(lambda t, y: (y[0] * y[0],), [1.0], (0.0, 2.0),
                               dt=1e-4)
        assert traj.status == solver.ABORTED_BLOWUP
        assert "exceeded" in traj.message
        assert np.all(np.isfinite(traj.states))
        # the guard trips within a few steps of the pole at t = 1
        assert 0.99 < traj.last_time < 1.01
        assert traj.states[-1, 0] > 1e6  # offending state is kept

    def test_default_guard_of_a_huge_state_is_finite(self):
        # 1e6 |y0| overflows here; the capped guard lets e^t 1e303 run
        # until it overflows, at t = ln(float max / 1e303) = 12.1 or, in
        # a stage sum such as k1 + 2 k2 + 2 k3 + k4, a little before
        traj = integrate_fixed(lambda t, y: (y[0],), [1e303], (0.0, 20.0),
                               dt=1e-2)
        assert traj.status == solver.ABORTED_BLOWUP
        assert "non-finite" in traj.message
        assert np.all(np.isfinite(traj.states))
        assert 9.0 < traj.last_time < 12.1

    def test_custom_threshold(self):
        traj = integrate_fixed(lambda t, y: y, [1.0], (0.0, 10.0), dt=1e-2,
                               blowup_threshold=100.0)
        assert traj.status == solver.ABORTED_BLOWUP
        # e^t crosses 100 at t = ln(100) = 4.605...
        assert traj.last_time == pytest.approx(math.log(100.0), abs=0.02)

    def test_nonfinite_rhs_aborts_without_poisoning(self):
        def bad(t, y):
            return (math.nan,) if t > 0.5 else (-y[0],)

        traj = integrate_fixed(bad, [1.0], (0.0, 1.0), dt=1e-2)
        assert traj.status == solver.ABORTED_BLOWUP
        assert "non-finite" in traj.message
        assert np.all(np.isfinite(traj.states))

    def test_oversized_grid_rejected_before_allocation(self):
        def never(t, y):
            raise AssertionError("no step may be taken")

        with pytest.raises(ValueError, match="1000000000000001 samples"):
            integrate_fixed(never, [1.0], (0.0, 1e12), dt=1e-3)
        # one sample over the budget, counted exactly: the steps plus t0
        with pytest.raises(ValueError, match="10000001 samples"):
            integrate_fixed(never, [1.0], (0.0, solver.DEFAULT_MAX_STEPS),
                            dt=1.0)
        with pytest.raises(ValueError, match="10000001 samples"):
            integrate_fixed(never, [1.0], (0.0, solver.DEFAULT_MAX_STEPS - 0.5),
                            dt=1.0)

    def test_rejects_bad_span_and_dt(self):
        with pytest.raises(ValueError):
            integrate_fixed(decay, [1.0], (1.0, 0.0))
        with pytest.raises(ValueError):
            integrate_fixed(decay, [1.0], (0.0, 1.0), dt=-0.1)
        for dt in (math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and "
                                                 "finite"):
                integrate_fixed(decay, [1.0], (0.0, 1.0), dt=dt)
        with pytest.raises(ValueError):
            integrate_fixed(decay, [math.inf], (0.0, 1.0))

    def test_rejects_bad_guard_and_unbounded_span(self):
        with pytest.raises(ValueError, match="blowup_threshold must be "
                                             "positive"):
            integrate_fixed(decay, [1.0], (0.0, 1.0), blowup_threshold=0.0)
        with pytest.raises(ValueError, match="inf samples exceed the sample "
                                             "budget"):
            integrate_fixed(decay, [1.0], (-1e308, 1e308), dt=1.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_rejects_non_finite_guard(self, threshold):
        # a nan guard compares false, so y' = y would reach e^100 unflagged
        with pytest.raises(ValueError, match="blowup_threshold must be "
                                             "positive and finite"):
            integrate_fixed(lambda t, y: (y[0],), [1.0], (0.0, 100.0),
                            blowup_threshold=threshold)

    @pytest.mark.parametrize("t_span, dt", [
        ((0.0, 1.0), 0.1), ((0.0, 1.05), 0.1), ((-0.0, 0.3), 0.1),
        ((-3.7, 2.2), 0.37), ((1e6, 1e6 + 1.0), 1e-2), ((0.0, 1.0), 2.0),
        ((0.0, 1.0 + 1e-13), 0.5),
        # no whole step, and the remainder is below 1e-12 dt: one step
        ((0.0, 2.0), 1e13), ((0.0, 2.0), 1e300)])
    def test_records_fixed_steps_plus_one(self, t_span, dt):
        traj = integrate_fixed(decay, [1.0], t_span, dt=dt)
        assert len(traj) == solver.fixed_steps(*t_span, dt) + 1
        assert traj.times[-1] == t_span[1]

    def test_initial_state_above_guard(self):
        traj = integrate_fixed(decay, [2.0], (0.0, 1.0), blowup_threshold=1.0)
        assert traj.status == solver.ABORTED_BLOWUP
        assert traj.message == "initial state already exceeds guard 1"
        assert traj.times.tolist() == [0.0]


def array_rk4(rhs, y0, t_span, dt, blowup_threshold):
    """RK4 with ndarray states and whole-array stage expressions.

    integrate_fixed updates a tuple of floats component by component in
    the same order, so it must reproduce this loop bit for bit.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    threshold = (solver.default_blowup_threshold(y) if blowup_threshold
                 is None else blowup_threshold)
    n_whole = (t1 - t0) // dt
    grid = t0 + dt * np.arange(int(n_whole) + 1)
    if t1 - grid[-1] > 1e-12 * dt:
        grid = np.append(grid, t1)
    else:
        grid[-1] = t1

    times = [t0]
    states = [y.copy()]
    if np.max(np.abs(y)) > threshold:
        return Trajectory(np.array(times), np.array(states),
                          solver.ABORTED_BLOWUP,
                          f"initial state already exceeds guard {threshold:g}")

    for i in range(len(grid) - 1):
        t = grid[i]
        h = grid[i + 1] - t
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y_new)):
            return Trajectory(np.array(times), np.array(states),
                              solver.ABORTED_BLOWUP,
                              f"non-finite state near t={grid[i + 1]:.6g}")
        times.append(grid[i + 1])
        states.append(y_new)
        if np.max(np.abs(y_new)) > threshold:
            return Trajectory(
                np.array(times), np.array(states), solver.ABORTED_BLOWUP,
                f"|state| exceeded {threshold:g} at t={grid[i + 1]:.6g}")
        y = y_new

    return Trajectory(np.array(times), np.array(states), solver.COMPLETED)


OSCILLATORY = {"signal": {"amplitude": 0.01, "wave_number": 0.1},
               "medium": {"beta": {"kind": "constant", "base": 0.1}},
               "time": {"t0": -60.0, "t1": -58.0},
               "solver": {"dt": 1e-3},
               "initial_condition": {"p0": 0.0101}}
BUMPS = {"signal": {"amplitude": 1.0, "wave_number": 0.1},
         "medium": {"omega": {"kind": "gaussian-bump", "base": 1.0,
                              "amplitude": 0.5, "center": 0.5, "width": 0.1},
                    "beta": {"kind": "sech2-bump", "base": 0.3,
                             "amplitude": 0.4, "center": 0.4,
                             "width": 0.05}},
         "time": {"t0": 0.0, "t1": 1.0},
         "solver": {"dt": 1e-3},
         "initial_condition": {"p0": 0.01}}
TABLE_BETA = {"signal": {"amplitude": 0.01, "wave_number": 0.1},
              "medium": {"beta": {"kind": "table",
                                  "table": [[-60.0, 0.1], [-59.3, 0.45],
                                            [-58.7, 0.0], [-58.0, 0.2]]}},
              "time": {"t0": -60.0, "t1": -57.5},
              "solver": {"dt": 1e-3},
              "initial_condition": {"p0": 0.01}}


class TestFixedMatchesArrayForm:
    @pytest.mark.parametrize("text, status", [
        (json.dumps(OSCILLATORY), solver.COMPLETED),
        (json.dumps(BUMPS), solver.ABORTED_BLOWUP),
        (json.dumps(TABLE_BETA), solver.COMPLETED),
        # blows up at t = 0.1321
        (default_config_path().read_text(), solver.ABORTED_BLOWUP)],
        ids=["constant", "bumps", "table-beta", "default-scenario"])
    def test_trajectory_bytes_match(self, text, status):
        config = load_config(text)
        span = (config.t0, config.t1)
        traj = integrate_milne(config.signal, config.medium, span,
                               ic=config.initial_condition, method="fixed",
                               dt=config.dt,
                               blowup_threshold=config.blowup_threshold)
        # a 0-d time reads the coefficients through the array path, not
        # the scalar kernels
        oracle = array_rk4(
            lambda t, y: milne_rhs(y, config.signal, config.medium,
                                   np.asarray(t)),
            config.initial_condition, span, config.dt,
            config.blowup_threshold)
        assert np.array_equal(traj.times, oracle.times)
        assert np.array_equal(traj.states, oracle.states)
        assert (traj.status, traj.message) == (oracle.status, oracle.message)
        assert traj.status == status
        assert len(traj) > 500


    @pytest.mark.parametrize("t_span, dt", [
        ((-0.0, 0.35), 0.1), ((0.0, 1.0), 0.1), ((0.1, 0.7), 0.1),
        ((-3.7, 2.2), 0.37), ((1e6, 1e6 + 1.0 + 1e-13), 1e-2)])
    def test_lazy_grid_matches_the_array_grid(self, t_span, dt):
        # the RHS reads the sign of t: the first step must see the grid's
        # t0 + dt * 0, which is +0.0 where t0 is -0.0
        def rhs(t, y):
            return (math.copysign(1.0, t) - y[0],)

        got = integrate_fixed(rhs, [1.0], t_span, dt=dt)
        want = array_rk4(rhs, [1.0], t_span, dt, None)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()


class TestFixedAgainstScipy:
    def test_oscillatory_regime_tracks_dop853(self):
        # an independent eighth-order integrator run near machine precision
        integrate = pytest.importorskip("scipy.integrate")
        config = load_config(json.dumps({
            **OSCILLATORY, "time": {"t0": -60.0, "t1": -48.0},
            "initial_condition": {"p0": 0.01}}))

        def rhs(t, y):
            return milne_rhs(y, config.signal, config.medium, t)

        span = (config.t0, config.t1)
        traj = integrate_fixed(rhs, config.initial_condition, span,
                               dt=config.dt)
        assert traj.completed and len(traj) == 12001
        ref = integrate.solve_ivp(rhs, span, config.initial_condition,
                                  method="DOP853", t_eval=traj.times,
                                  rtol=1e-13, atol=1e-16)
        assert ref.success
        # measured 3.3e-4 for p and 3.0e-4 for p', relative to the largest
        # |component| of each
        error = np.max(np.abs(traj.states - ref.y.T), axis=0)
        assert np.all(error / np.max(np.abs(ref.y), axis=1) < 1e-3)


class TestAdaptive:
    def test_exponential_decay_tracks_tolerance(self):
        traj = integrate_adaptive(decay, [1.0], (0.0, 1.0),
                                  rtol=1e-9, atol=1e-12)
        assert traj.completed
        assert traj.times[0] == 0.0
        assert traj.last_time == 1.0
        assert traj.states[-1][0] == pytest.approx(EXP_DECAY_AT_1, rel=1e-8)

    def test_agrees_with_fixed_solver(self):
        # dual-route check: two independent steppers, same problem. Each
        # route is held to the closed form at its own points, and both land
        # on t1, where their end states must agree. The adaptive bound
        # allows for the controller's per-step error accumulating over a
        # few hundred steps.
        def exact(t):
            return np.stack([0.3 * np.cos(t) - 0.2 * np.sin(t),
                             -0.3 * np.sin(t) - 0.2 * np.cos(t)], axis=-1)

        fixed = integrate_fixed(harmonic, [0.3, -0.2], (0.0, 5.0),
                                dt=2.0 ** -10)
        adap = integrate_adaptive(harmonic, [0.3, -0.2], (0.0, 5.0),
                                  rtol=1e-9, atol=1e-12)
        assert fixed.completed and adap.completed
        assert np.max(np.abs(fixed.states - exact(fixed.times))) < 1e-10
        assert np.max(np.abs(adap.states - exact(adap.times))) < 5e-7
        assert fixed.last_time == adap.last_time == 5.0
        assert np.max(np.abs(fixed.states[-1] - adap.states[-1])) < 5e-7

    @pytest.mark.xfail(strict=True, reason="FSAL stage aliases the stage "
                       "buffer: after a rejected attempt the next step "
                       "starts from the rejected trial's last stage")
    def test_steps_after_rejections_stay_accurate(self):
        traj = integrate_adaptive(harmonic, [1.0, 0.0], (0.0, 50.0),
                                  rtol=1e-9, atol=1e-12)
        assert traj.completed
        exact = np.stack([np.cos(traj.times), -np.sin(traj.times)], axis=1)
        assert np.max(np.abs(traj.states - exact)) < 1e-7

    def test_blowup_time_close_to_truth(self):
        traj = integrate_adaptive(lambda t, y: y * y, [1.0], (0.0, 2.0),
                                  rtol=1e-10, atol=1e-12)
        assert traj.status == solver.ABORTED_BLOWUP
        # threshold 1e6 is crossed at t = 1 - 1e-6
        assert traj.last_time == pytest.approx(1.0 - 1e-6, abs=1e-4)
        assert np.all(np.isfinite(traj.states))

    def test_default_guard_of_a_huge_state_is_finite(self):
        # e^t 1e303 overflows at t = 12.1, or in a stage sum before
        traj = integrate_adaptive(lambda t, y: y, [1e303], (0.0, 20.0))
        assert traj.status == solver.ABORTED_BLOWUP
        assert np.all(np.isfinite(traj.states))
        assert 9.0 < traj.last_time < 12.1

    def test_step_limit(self):
        traj = integrate_adaptive(harmonic, [1.0, 0.0], (0.0, 100.0),
                                  max_steps=10)
        assert traj.status == solver.ABORTED_STEP_LIMIT
        assert "10" in traj.message

    @pytest.mark.parametrize("max_steps", [math.nan, math.inf, 10.5, 10.0,
                                           0, -3, True, "10", None])
    def test_max_steps_must_be_a_positive_integer(self, max_steps):
        # nan switched the limit off (a completed run), 10.5 reported
        # "gave up after 10.5 step attempts"
        with pytest.raises(ValueError, match="max_steps must be a positive "
                                             f"integer, got {max_steps!r}"):
            integrate_adaptive(harmonic, [1.0, 0.0], (0.0, 100.0),
                               max_steps=max_steps)

    def test_initial_state_above_guard(self):
        traj = integrate_adaptive(decay, [2.0], (0.0, 1.0),
                                  blowup_threshold=1.0)
        assert traj.status == solver.ABORTED_BLOWUP
        assert traj.message == "initial state already exceeds guard 1"
        assert traj.times.tolist() == [0.0]

    @pytest.mark.parametrize("tols", [{"rtol": 0.0}, {"atol": -1e-12}])
    def test_rejects_nonpositive_tolerances(self, tols):
        (name, value), = tols.items()
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            integrate_adaptive(decay, [1.0], (0.0, 1.0), **tols)

    @pytest.mark.parametrize("name", ["rtol", "atol", "blowup_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_tolerances_and_guard(self, name, value):
        # nan tolerances read as a step-size underflow, rtol=inf as a
        # completed run, and a nan guard is never tripped
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             f"finite, got {value}"):
            integrate_adaptive(decay, [1.0], (0.0, 1.0), **{name: value})

    def test_zero_error_grows_the_step_by_the_max_factor(self):
        traj = integrate_adaptive(lambda t, y: (0.0,), [1.0], (0.0, 1.0))
        assert traj.completed
        # the first step is 1e-3 of the span, each next one 5 times longer
        # until the last is cut to land on t1
        np.testing.assert_allclose(np.diff(traj.times)[:5],
                                   [1e-3, 5e-3, 25e-3, 0.125, 0.625],
                                   rtol=1e-12)
        assert traj.times[-1] == 1.0 and len(traj) == 7
        assert traj.states.tolist() == [[1.0]] * 7

    def test_nonfinite_rhs_at_start_gives_empty_trajectory(self):
        traj = integrate_adaptive(lambda t, y: np.array([math.nan]),
                                  [1.0], (0.0, 1.0))
        assert traj.status == solver.ABORTED_BLOWUP
        assert len(traj) == 0


class TestTrajectory:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))

    def test_requires_1d_times(self):
        with pytest.raises(ValueError, match="times must be a 1-d array"):
            Trajectory(np.zeros((2, 1)), np.zeros((2, 1)))

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
