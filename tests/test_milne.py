"""Pressure dynamics, energy functionals, envelope and estimation checks.

Frozen numbers below were evaluated by hand from the defining formulas
(they are simple enough to carry exactly) or with mpmath at 30 digits.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from milnesea import milne, solver
from milnesea.acoustic_signal import SignalSpec
from milnesea.errors import InsufficientDataError
from milnesea.medium import CoefficientProfile, MediumSpec
from milnesea.milne import (EnvelopeSample, MilneState, envelope_denominator,
                            envelope_q, estimate_period_phase, hamiltonian_density,
                            integrate_milne, lagrangian_density, milne_rhs,
                            q_plus_minus_squared, wrap_angle)
from milnesea.solver import Trajectory
from milnesea.transition import compare_forms


def spec_k01(amplitude=1.0):
    return SignalSpec.from_wave_number(amplitude, 1480.0, 0.1)


def const_medium(beta=0.5, omega=1.0, **kw):
    return MediumSpec(CoefficientProfile(kind="constant", base=omega),
                      CoefficientProfile(kind="constant", base=beta), **kw)


class TestRhs:
    def test_crest_at_rest_at_t0(self):
        # p p'^2 and the time-proportional term vanish; only beta c k p
        # survives: 0.5 * 1480 * 0.1 * 1 = 74 exactly
        out = milne_rhs(0.0, (1.0, 0.0), spec_k01(), const_medium())
        assert out[0] == 0.0
        assert out[1] == 74.0

    def test_general_point(self):
        # p=0.5, p'=2, t=0.1:
        #   0.5*4 - 0.5*2 + 0.5*148*0.5 + 1480*0.1*0.1*0.5
        # = 2 - 1 + 37 + 7.4 = 45.4
        out = milne_rhs(0.1, (0.5, 2.0), spec_k01(), const_medium())
        assert out[1] == pytest.approx(45.4, rel=1e-14)

    @pytest.mark.parametrize("state", [(1.0,), (1.0, 0.0, 0.0)],
                             ids=["short", "long"])
    def test_state_is_exactly_p_and_rate(self, state):
        # a third entry used to be ignored
        with pytest.raises(ValueError, match="values to unpack"):
            milne_rhs(0.0, state, spec_k01(), const_medium())

    def test_time_dependence_through_profiles(self):
        med = MediumSpec(
            CoefficientProfile(kind="constant", base=1.0),
            CoefficientProfile(kind="gaussian-bump", base=0.0, amplitude=0.5,
                               center=10.0, width=1.0))
        at_peak = milne_rhs(10.0, (1.0, 0.0), spec_k01(), med)
        # beta(10) = 0.5 -> 0.5*148 + 1480*10*0.1 = 74 + 1480
        assert at_peak[1] == pytest.approx(1554.0, rel=1e-14)


class TestIntegration:
    def test_default_ic_is_crest_at_rest(self):
        traj = integrate_milne(spec_k01(), const_medium(), (0.0, 0.01),
                               dt=1e-3)
        np.testing.assert_array_equal(traj.states[0], [1.0, 0.0])

    def test_blowup_is_a_status_not_an_error(self):
        traj = integrate_milne(spec_k01(), const_medium(), (0.0, 2.0),
                               dt=1e-4)
        assert traj.status == "aborted-blowup"
        assert traj.last_time == pytest.approx(0.132, abs=0.002)

    def test_fixed_and_adaptive_agree_on_blowup_time(self):
        fixed = integrate_milne(spec_k01(), const_medium(), (0.0, 2.0),
                                method="fixed", dt=1e-4)
        adap = integrate_milne(spec_k01(), const_medium(), (0.0, 2.0),
                               method="adaptive", rtol=1e-10, atol=1e-12)
        assert adap.status == "aborted-blowup"
        gap = abs(fixed.last_time - adap.last_time)
        assert gap <= 0.01 * max(fixed.last_time, adap.last_time)

    def test_oscillatory_regime_completes(self):
        # at negative times the time-proportional term is restoring
        traj = integrate_milne(spec_k01(amplitude=0.01),
                               const_medium(beta=0.1), (-60.0, -30.0),
                               ic=MilneState(0.01, 0.0), dt=1e-3)
        assert traj.completed
        assert np.max(np.abs(traj.states[:, 0])) < 0.05

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            integrate_milne(spec_k01(), const_medium(), (0.0, 1.0),
                            method="leapfrog")

    def test_fixed_run_calls_milne_rhs_four_times_per_step(self,
                                                            monkeypatch):
        # the benchmark's tracer counts RHS calls by wrapping the module
        # global milne.milne_rhs, so every RK4 stage must reach it there
        calls = 0
        real_rhs = milne.milne_rhs

        def counting(*args):
            nonlocal calls
            calls += 1
            return real_rhs(*args)

        monkeypatch.setattr(milne, "milne_rhs", counting)
        traj = integrate_milne(spec_k01(amplitude=0.01),
                               const_medium(beta=0.1), (-60.0, -59.5),
                               ic=MilneState(0.01, 0.0), dt=1e-3)
        assert traj.completed and len(traj) == 501
        assert calls == 4 * 500

    def test_narrow_bumps_over_a_long_span(self, monkeypatch):
        # capping every step at the smallest width would take 10^7
        # attempts here; the windowed cap stays inside the limit set below
        monkeypatch.setattr(milne, "integrate_adaptive", functools.partial(
            solver.integrate_adaptive, max_steps=10_000))
        medium = MediumSpec(
            CoefficientProfile(kind="gaussian-bump", amplitude=1.5,
                               center=-500.0, width=1e-4),
            CoefficientProfile(kind="sech2-bump", base=0.1, amplitude=1.0,
                               center=-200.0, width=1e-4))
        traj = integrate_milne(SignalSpec.from_wave_number(1e-3, 2.0, 6.7e-4),
                               medium, (-1000.0, 0.0), method="adaptive")
        assert traj.completed, traj.message
        # each bump is sampled within a width of its center, not stepped over
        for center in (-500.0, -200.0):
            assert np.min(np.abs(traj.times - center)) < 1e-4


class TestEnergies:
    # state (1, 1), beta = 0.1, t = 1: V = 7.4 + 74 = 81.4
    def test_frozen_lagrangian(self):
        got = lagrangian_density((1.0, 1.0), spec_k01(),
                                 const_medium(beta=0.1), 1.0)
        assert got == pytest.approx(81.9, rel=1e-14)

    def test_frozen_hamiltonian(self):
        got = hamiltonian_density((1.0, 1.0), spec_k01(),
                                  const_medium(beta=0.1), 1.0)
        assert got == pytest.approx(-80.9, rel=1e-14)

    def test_difference_is_twice_potential(self):
        rng = np.random.default_rng(7)
        spec = spec_k01()
        med = const_medium()
        for _ in range(200):
            p, pd = rng.uniform(-2.0, 2.0, size=2)
            t = rng.uniform(-5.0, 5.0)
            lag = lagrangian_density((p, pd), spec, med, t)
            ham = hamiltonian_density((p, pd), spec, med, t)
            pot2 = 2.0 * (lag - 0.5 * pd * pd)
            scale = max(1.0, abs(lag), abs(ham))
            assert abs((lag - ham) - pot2) <= 1e-12 * scale

    def test_milne_energy_zero_state(self):
        assert hamiltonian_density((0.0, 0.0), spec_k01(), const_medium(),
                                   3.0) == 0.0

    def test_milne_energy_stationary_reduction(self):
        # with q' = 0 the energy is -(beta c k + omega^2 c t k)/2 * q^2
        spec = spec_k01()
        med = const_medium(beta=0.3)
        for t in (-2.0, 0.0, 0.7):
            for q in (0.2, 1.3):
                want = -0.5 * (0.3 * 148.0 + 1480.0 * t * 0.1) * q * q
                got = hamiltonian_density((q, 0.0), spec, med, t)
                assert got == pytest.approx(want, rel=1e-13)

    def test_energies_broadcast(self):
        p = np.array([0.1, 0.2])
        pd = np.array([1.0, -1.0])
        t = np.array([0.0, 1.0])
        out = hamiltonian_density((p, pd), spec_k01(), const_medium(), t)
        assert out.shape == (2,)


class TestEnvelope:
    def test_frozen_value(self):
        # E=1, tau=0, t=0, beta=0.5: 2*1*cos(0) / (0.5*148) = 2/74
        s = envelope_q(1.0, 0.0, spec_k01(), const_medium(), 0.0)
        assert s.q_squared == pytest.approx(0.02702702702702703, rel=1e-15)
        assert s.magnitude == pytest.approx(math.sqrt(2.0 / 74.0), rel=1e-15)
        assert s.imaginary_branch is True

    def test_negative_radicand_is_real_branch(self):
        # cos(2t - tau) < 0 flips the sign
        s = envelope_q(1.0, 0.0, spec_k01(), const_medium(), math.pi / 2.0)
        assert s.q_squared < 0
        assert s.imaginary_branch is False
        assert s.magnitude == pytest.approx(math.sqrt(-s.q_squared))

    def test_zero_denominator_gives_inf_without_warning(self):
        med = const_medium(beta=0.0)
        assert envelope_denominator(spec_k01(), med, 0.0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = envelope_q(1.0, 1.0, spec_k01(), med, 0.0)
            assert s.q_squared == math.inf  # 2 cos(-1) > 0 over +0.0
            assert s.magnitude == math.inf and s.imaginary_branch is True
            assert math.isnan(envelope_q(0.0, 1.0, spec_k01(), med,
                                         0.0).q_squared)

    @pytest.mark.parametrize("e_m", [1.3, 0.0])
    def test_zero_denominator_mid_array(self, e_m):
        # beta = 0 leaves the denominator 148 t, zero at t = 0 alone
        med = const_medium(beta=0.0)
        t = np.linspace(-1.0, 1.0, 9)
        assert np.flatnonzero(envelope_denominator(spec_k01(), med, t)
                              == 0.0).tolist() == [4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q2 = envelope_q(e_m, 0.7, spec_k01(), med, t).q_squared
            forms = compare_forms(e_m, 0.3, 0.7, spec_k01(), med, t)
        assert (math.isnan(q2[4]) if e_m == 0.0 else math.isinf(q2[4]))
        others = [i for i in range(9) if i != 4]
        assert q2[others].tolist() == [
            envelope_q(e_m, 0.7, spec_k01(), med, float(t[i])).q_squared
            for i in others]
        assert np.isfinite(q2[others]).all()
        for m in (forms.composed, forms.expanded):
            assert not np.isfinite(m[4]).any()
            assert np.isfinite(m[others]).all()
        assert not math.isfinite(forms.discrepancy[4])

    def test_pair_sums_to_exactly_zero(self):
        # note the denominator's genuine zero at t = -0.5 is avoided here;
        # singular behaviour has its own test above
        for t in np.linspace(-0.4, 3.0, 35):
            qp, qm = q_plus_minus_squared(1.3, 0.7, spec_k01(),
                                          const_medium(), float(t))
            assert qp + qm == 0.0
            assert qm == envelope_q(1.3, 0.7, spec_k01(), const_medium(),
                                    float(t)).q_squared


def synthetic_trajectory(omega, delta, t0=0.0, t1=None, dt=1e-3, decay=0.0):
    if t1 is None:
        t1 = t0 + 10.0 * 2.0 * math.pi / omega
    t = np.arange(t0, t1, dt)
    amp = np.exp(-decay * (t - t0))
    p = amp * np.cos(omega * t - delta)
    v = -amp * omega * np.sin(omega * t - delta) - decay * amp * np.cos(
        omega * t - delta)
    return Trajectory(t, np.stack([p, v], axis=1))


class TestEstimation:
    def test_unit_frequency_cosine(self):
        tau, delta = estimate_period_phase(synthetic_trajectory(1.0, 0.0))
        assert tau == pytest.approx(2.0 * math.pi, abs=1e-4)
        assert delta == pytest.approx(0.0, abs=1e-4)

    def test_shifted_faster_cosine(self):
        tau, delta = estimate_period_phase(synthetic_trajectory(1.2, 0.3))
        assert tau == pytest.approx(2.0 * math.pi / 1.2, abs=1e-4)
        assert delta == pytest.approx(0.3, abs=1e-3)

    def test_negative_shift_normalised(self):
        tau, delta = estimate_period_phase(synthetic_trajectory(1.0, -2.0))
        assert delta == pytest.approx(-2.0, abs=1e-3)

    def test_too_few_crossings(self):
        t = np.linspace(0.0, 1.0, 100)
        flat = Trajectory(t, np.stack([t + 1.0, np.ones_like(t)], axis=1))
        with pytest.raises(InsufficientDataError):
            estimate_period_phase(flat)

    def test_light_damping_keeps_phase(self):
        traj = synthetic_trajectory(1.0, 0.25, decay=1e-3)
        tau, delta = estimate_period_phase(traj)
        assert tau == pytest.approx(2.0 * math.pi, abs=2e-3)
        assert delta == pytest.approx(0.25, abs=5e-3)


class TestWrapAngle:
    def test_delta_normalised(self):
        w = wrap_angle(7.0)
        assert w == pytest.approx(7.0 - 2.0 * math.pi, rel=1e-12)
        assert -math.pi < w <= math.pi

    def test_delta_in_range_kept_as_given(self):
        # atan2(sin a, cos a) moves this one by one ulp
        delta = 0.12362088731019161
        assert wrap_angle(delta) == delta
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(math.pi) == math.pi
