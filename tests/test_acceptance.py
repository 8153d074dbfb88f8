"""Acceptance gate: fifteen numbered checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as
they happen (without -s pytest shows them only for failing tests).
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from milnesea import default_config_path
from milnesea.acoustic_signal import (SignalSpec, invert_position,
                                      pressure_at, wave_residual)
from milnesea.cli import main as cli_main
from milnesea.environment import (BathymetrySpec, SurfaceSpectrumParams,
                                  bathymetry_profile, psd_peak_wavenumber,
                                  surface_psd)
from milnesea.medium import CoefficientProfile, MediumSpec
from milnesea.milne import (envelope_q, hamiltonian_density,
                            lagrangian_density, milne_rhs,
                            q_plus_minus_squared)
from milnesea.oscillator import analytic_constant_solution, damped_rhs, \
    parametric_rhs
from milnesea.solver import integrate_adaptive, integrate_fixed
from milnesea.transition import composed_from_q, compare_forms, rotation


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    print(f"criterion {number:02d} PASS: {description}")


SPEC = SignalSpec.from_wave_number(1.0, 1480.0, 0.1)
MEDIUM = MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                    CoefficientProfile(kind="constant", base=0.5))


def harmonic_max_error(dt: float) -> float:
    traj = integrate_fixed(lambda t, y: damped_rhs(y, 0.0, 1.0),
                           [1.0, 0.0], (0.0, 20.0), dt=dt)
    return float(np.max(np.abs(traj.states[:, 0] - np.cos(traj.times))))


def test_c01_solver_order():
    with criterion(1, "fixed-step solver gains >= 14x accuracy per halving"):
        ratio = harmonic_max_error(2e-3) / harmonic_max_error(1e-3)
        assert ratio >= 14.0, f"order ratio {ratio}"


def test_c02_damped_oscillator_matches_closed_form():
    with criterion(2, "integrated oscillator matches closed form to 1e-6"):
        for beta in (0.0, 0.5, 2.0, 3.0):
            traj = integrate_fixed(lambda t, y: damped_rhs(y, beta, 1.0),
                                   [1.0, 0.0], (0.0, 20.0), dt=1e-3)
            x_ref, _ = analytic_constant_solution(beta, 1.0, 1.0, 0.0,
                                                  traj.times)
            err = float(np.max(np.abs(traj.states[:, 0] - x_ref)))
            assert err < 1e-6, f"beta={beta}: max error {err}"


def test_c03_undamped_energy_conserved():
    with criterion(3, "undamped oscillator conserves energy to 1e-6 "
                      "over 100 time units"):
        traj = integrate_fixed(lambda t, y: damped_rhs(y, 0.0, 1.0),
                               [1.0, 0.0], (0.0, 100.0), dt=1e-3)
        energy = 0.5 * (traj.states[:, 1] ** 2 + traj.states[:, 0] ** 2)
        drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
        assert drift < 1e-6, f"relative drift {drift}"


def test_c04_parametric_medium_settles():
    with criterion(4, "oscillator returns to plain motion after a "
                      "frequency bump passes"):
        medium = MediumSpec(
            CoefficientProfile(kind="gaussian-bump", base=1.0, amplitude=0.5,
                               center=10.0, width=1.0),
            CoefficientProfile(kind="constant", base=0.0))
        traj = integrate_fixed(lambda t, y: parametric_rhs(y, medium, t),
                               [1.0, 0.0], (0.0, 40.0), dt=1e-3)
        x = traj.states[:, 0]
        dt = traj.times[1] - traj.times[0]
        acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / (dt * dt)
        residual = acc + x[1:-1]
        late = traj.times[1:-1] >= 25.0
        worst = float(np.max(np.abs(residual[late])))
        assert worst < 1e-6, f"settled residual {worst}"


def test_c05_travelling_wave_annihilated():
    with criterion(5, "wave-operator residual vanishes at second order on "
                      "the travelling signal"):
        lam = SPEC.wavelength
        bound = 1e-6 * SPEC.amplitude * SPEC.angular_frequency ** 2
        xs, ts = np.meshgrid(np.linspace(0.0, lam, 5),
                             np.linspace(0.0, 0.1, 5))
        h = lam / 1000.0
        res_h = float(np.max(np.abs(wave_residual(SPEC, SPEC.sound_speed,
                                                  xs, ts, h))))
        res_h2 = float(np.max(np.abs(wave_residual(SPEC, SPEC.sound_speed,
                                                   xs, ts, h / 2.0))))
        assert res_h < bound, f"residual {res_h} vs bound {bound}"
        factor = res_h / res_h2
        assert abs(factor - 4.0) <= 0.8, f"halving factor {factor}"


def test_c06_position_roundtrip():
    with criterion(6, "1000 random positions recovered from pressure to "
                      "1e-9 wavelengths"):
        rng = np.random.default_rng(2024)
        lam = SPEC.wavelength
        k, c = SPEC.wave_number, SPEC.sound_speed
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-3.0 * lam, 3.0 * lam)
            t = rng.uniform(-5.0, 5.0)
            theta = k * (x - c * t)
            branch = math.floor(theta / (2.0 * math.pi))
            frac = theta - 2.0 * math.pi * branch
            sign = 1 if frac <= math.pi else -1
            if sign < 0:
                branch += 1
            p = pressure_at(SPEC, x, t)
            x_back = invert_position(SPEC, p, t, branch=branch, sign=sign)
            worst = max(worst, abs(x_back - x))
        assert worst <= 1e-9 * lam, f"worst roundtrip error {worst}"


def test_c07_initial_pressure_acceleration():
    with criterion(7, "crest at rest accelerates at exactly 74.0"):
        out = milne_rhs(0.0, (1.0, 0.0), SPEC, MEDIUM)
        assert abs(out[1] - 74.0) <= 1e-12, f"p_ddot(0) = {out[1]!r}"


def test_c08_two_solvers_agree_on_the_default_scenario():
    with criterion(8, "fixed and adaptive integration agree on the default "
                      "scenario (values to 1e-6, or blow-up time to 1%)"):
        rhs = lambda t, y: milne_rhs(t, y, SPEC, MEDIUM)
        fixed = integrate_fixed(rhs, [1.0, 0.0], (0.0, 2.0), dt=1e-4)
        adaptive = integrate_adaptive(rhs, [1.0, 0.0], (0.0, 2.0),
                                      rtol=1e-10, atol=1e-12)
        if fixed.completed and adaptive.completed:
            gap = np.max(np.abs(np.interp(fixed.times, adaptive.times,
                                          adaptive.states[:, 0])
                                - fixed.states[:, 0]))
            assert gap <= 1e-6, f"trajectory gap {gap}"
        else:
            assert fixed.status == adaptive.status == "aborted-blowup", (
                fixed.status, adaptive.status)
            tf, ta = fixed.last_time, adaptive.last_time
            assert abs(tf - ta) <= 0.01 * max(tf, ta), (
                f"blow-up times {tf} vs {ta}")


def test_c09_energy_functional_identity():
    with criterion(9, "Lagrangian minus Hamiltonian equals twice the "
                      "potential at 1000 random points"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            p, pd = rng.uniform(-2.0, 2.0, size=2)
            t = rng.uniform(-5.0, 5.0)
            lag = lagrangian_density((p, pd), SPEC, MEDIUM, t)
            ham = hamiltonian_density((p, pd), SPEC, MEDIUM, t)
            pot2 = 2.0 * (lag - 0.5 * pd * pd)
            scale = max(1.0, abs(lag), abs(ham), abs(pot2))
            assert abs((lag - ham) - pot2) <= 1e-12 * scale


def test_c10_envelope_algebra():
    with criterion(10, "envelope squares cancel exactly and zeros land on "
                       "the quarter-period lattice"):
        e_m, tau = 1.0, 1.0
        stride_h = 10 * 1e-4  # the shipped scenario's output spacing
        grid = np.arange(0.0, 2.0 + stride_h / 2, stride_h)
        values = []
        for t in grid:
            qp, qm = q_plus_minus_squared(e_m, tau, SPEC, MEDIUM, float(t))
            assert qp + qm == 0.0
            values.append(envelope_q(e_m, tau, SPEC, MEDIUM,
                                     float(t)).q_squared)
        values = np.array(values)
        # sign changes of q^2 bracket the true zeros 2t - tau = pi/2 + n pi
        flips = np.nonzero(np.diff(np.signbit(values)))[0]
        assert len(flips) > 0
        for i in flips:
            n = round((2.0 * grid[i] - tau - math.pi / 2.0) / math.pi)
            t_zero = (tau + math.pi / 2.0 + n * math.pi) / 2.0
            assert abs(grid[i] - t_zero) <= stride_h, (grid[i], t_zero)


def test_c11_transition_structure():
    with criterion(11, "rotations are orthogonal and the composed matrix "
                       "obeys its collapse and determinant laws"):
        for angle in np.linspace(-math.pi, math.pi, 25):
            r = rotation(float(angle))
            assert np.max(np.abs(r @ r.T - np.eye(2))) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12
        for delta in (-1.0, -0.2, 0.0, 0.4, 1.3):
            for tau in (-2.0, 0.0, 0.8, 2.5):
                m = composed_from_q(1.0, 1.0, delta, tau)
                want = rotation(2.0 * tau - 2.0 * delta)
                assert np.max(np.abs(m - want)) <= 1e-12
        rng = np.random.default_rng(17)
        for _ in range(100):
            qm = rng.uniform(-2.0, 2.0)
            delta, tau = rng.uniform(-math.pi, math.pi, size=2)
            m = composed_from_q(-qm, qm, delta, tau)
            want = math.cos(2 * delta) ** 2 - (qm * math.sin(2 * delta)) ** 2
            assert abs(np.linalg.det(m) - want) <= 1e-9


def test_c12_form_discrepancy_detected():
    with criterion(12, "the two transition-matrix forms differ by sqrt(1/2) "
                       "at the reference point"):
        cmp = compare_forms(1.0, 0.0, math.pi / 4.0, SPEC, MEDIUM, 1.5)
        assert abs(cmp.discrepancy - math.sqrt(0.5)) <= 1e-9, cmp.discrepancy


def test_c13_surface_spectrum_oracles():
    with criterion(13, "surface spectrum hits its frozen value, peak "
                       "wavenumber and high-wind limit"):
        params = SurfaceSpectrumParams(wind_speed=10.0)
        s = surface_psd(params, 0.1)
        assert abs(s - 1.9842) <= 1e-3, s
        kp = psd_peak_wavenumber(params)
        assert abs(kp - 0.068973) <= 1e-5, kp
        k_grid = np.linspace(0.01, 0.3, 20001)
        k_star = float(k_grid[np.argmax(surface_psd(params, k_grid))])
        assert abs(k_star - kp) <= (k_grid[1] - k_grid[0]) + 1e-12
        gale = SurfaceSpectrumParams(wind_speed=1e9)
        assert abs(surface_psd(gale, 1.0) - 0.00405) <= 1e-12


def test_c14_bathymetry_bounds_and_determinism():
    with criterion(14, "seabed profile bounded, pinned to zero at hill "
                       "boundaries, and seed-reproducible"):
        spec = BathymetrySpec(zeta_max=5.0, hill_spacing=100.0,
                              length=2000.0, dx=0.02, seed=42)
        a = bathymetry_profile(spec)
        assert len(a.x) == 100001
        assert a.zeta.min() >= 0.0 and a.zeta.max() <= 5.0
        boundaries = np.isclose(a.x % 100.0, 0.0, atol=1e-9)
        np.testing.assert_array_equal(a.zeta[boundaries], 0.0)
        b = bathymetry_profile(spec)
        assert a.zeta.tobytes() == b.zeta.tobytes()
        assert a.x.tobytes() == b.x.tobytes()


def test_c15_end_to_end_determinism(tmp_path, capsys):
    with criterion(15, "the CLI writes bit-identical outputs twice and the "
                       "energy-bound flag matches the summary"):
        config = str(default_config_path())
        for sub in ("one", "two"):
            code = cli_main(["simulate", config, "--out-dir",
                             str(tmp_path / sub)])
            assert code == 0, f"exit code {code}"
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert "result.json" in names
        for name in names:
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second, f"{name} differs between runs"
        doc = json.loads((tmp_path / "one" / "result.json").read_text())
        summary = doc["summary"]
        assert summary["flags"]["e_m_bound_violated"] == (
            summary["e_m"] < 1.0)
