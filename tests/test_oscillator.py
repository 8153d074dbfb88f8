"""Oscillator dynamics versus the closed-form constant-coefficient solution.

Frozen reference values were evaluated independently from the closed
forms at high precision.
"""

import numpy as np
import pytest

from milnesea.medium import CoefficientProfile, MediumSpec
from milnesea.oscillator import (OscillatorState, analytic_constant_solution,
                                 damped_rhs, parametric_rhs)
from milnesea.solver import integrate_fixed

# (beta, omega, x0, v0) -> (x(1), v(1))
FROZEN = {
    # undamped: (cos 1, -sin 1)
    (0.0, 1.0): (0.5403023058681398, -0.8414709848078965),
    # critical, beta = 2: x = (1 + t) e^-t
    (2.0, 1.0): (0.7357588823428847, -0.36787944117144233),
    # overdamped, beta = 3
    (3.0, 1.0): (0.7866455993033683, -0.272608937662529),
    # strongly overdamped, beta = 10
    (10.0, 1.0): (0.9132336581333081, -0.09225026009525891),
}


def test_rhs_values():
    out = damped_rhs((1.0, 2.0), beta=0.5, omega=2.0)
    np.testing.assert_array_equal(out, [2.0, -0.5 * 2.0 - 4.0 * 1.0])


def test_rhs_validates_coefficients():
    with pytest.raises(ValueError):
        damped_rhs((1.0, 0.0), beta=-0.1, omega=1.0)
    with pytest.raises(ValueError):
        damped_rhs((1.0, 0.0), beta=0.0, omega=0.0)


class TestAnalytic:
    @pytest.mark.parametrize("beta,omega", sorted(FROZEN))
    def test_frozen_values_at_t1(self, beta, omega):
        want_x, want_v = FROZEN[(beta, omega)]
        got = analytic_constant_solution(beta, omega, 1.0, 0.0, 1.0)
        assert got.x == pytest.approx(want_x, rel=1e-12)
        assert got.v == pytest.approx(want_v, rel=1e-12)

    def test_initial_conditions_reproduced(self):
        for beta in (0.0, 0.5, 2.0, 3.0):
            got = analytic_constant_solution(beta, 1.0, 0.3, -0.7, 0.0)
            assert got == OscillatorState(0.3, -0.7)

    def test_underdamped_decay_envelope(self):
        t = np.linspace(0.0, 30.0, 3001)
        sol = analytic_constant_solution(0.5, 1.0, 1.0, 0.0, t)
        bound = 1.2 * np.exp(-0.25 * t)
        assert np.all(np.abs(sol.x) <= bound)

    def test_near_critical_tie_break_is_continuous(self):
        # a hair on either side of critical damping must agree with the
        # critical formula to high accuracy, not divide by ~0
        crit = analytic_constant_solution(2.0, 1.0, 1.0, 0.5, 2.0)
        for eps in (1e-13, -1e-13):
            near = analytic_constant_solution(2.0 * (1.0 + eps), 1.0,
                                              1.0, 0.5, 2.0)
            assert near.x == pytest.approx(crit.x, rel=1e-9)
            assert near.v == pytest.approx(crit.v, rel=1e-9)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            analytic_constant_solution(-1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            analytic_constant_solution(1.0, -1.0, 1.0, 0.0, 1.0)


class TestIntegrationMatchesAnalytic:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 3.0])
    def test_all_regimes(self, beta):
        def rhs(t, y):
            return damped_rhs(y, beta, 1.0)

        traj = integrate_fixed(rhs, [1.0, 0.0], (0.0, 10.0), dt=1e-3)
        exact = analytic_constant_solution(beta, 1.0, 1.0, 0.0, traj.times)
        assert np.max(np.abs(traj.states[:, 0] - exact.x)) < 1e-9
        assert np.max(np.abs(traj.states[:, 1] - exact.v)) < 1e-9

    def test_undamped_energy_flat(self):
        def rhs(t, y):
            return damped_rhs(y, 0.0, 1.0)

        traj = integrate_fixed(rhs, [1.0, 0.0], (0.0, 20.0), dt=1e-3)
        energy = 0.5 * (traj.states[:, 1] ** 2 + traj.states[:, 0] ** 2)
        assert np.max(np.abs(energy - energy[0])) < 1e-9


class TestParametric:
    def setup_method(self):
        self.medium = MediumSpec(
            CoefficientProfile(kind="constant", base=1.0),
            CoefficientProfile(kind="gaussian-bump", base=0.0, amplitude=0.5,
                               center=10.0, width=1.0))

    def test_matches_damped_rhs_pointwise(self):
        state = (0.4, -1.1)
        for t in (0.0, 9.0, 10.0, 12.5):
            beta_t = self.medium.beta(t)
            np.testing.assert_allclose(parametric_rhs(state, self.medium, t),
                                       damped_rhs(state, beta_t, 1.0),
                                       rtol=1e-15)

    def test_settles_to_plain_oscillation_after_bump(self):
        def rhs(t, y):
            return parametric_rhs(y, self.medium, t)

        traj = integrate_fixed(rhs, [1.0, 0.0], (0.0, 40.0), dt=1e-3)
        # after the damping bump has passed, x'' + x = 0 again; check the
        # second difference of the recorded samples against -x
        t = traj.times
        x = traj.states[:, 0]
        inside = (t >= 25.0) & (t <= 40.0)
        idx = np.where(inside)[0][1:-1]
        dt = 1e-3
        acc = (x[idx + 1] - 2.0 * x[idx] + x[idx - 1]) / dt ** 2
        assert np.max(np.abs(acc + x[idx])) < 1e-6
