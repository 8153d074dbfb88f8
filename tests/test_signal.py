"""Travelling-wave field, inversion and discrete wave-operator checks."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from milnesea.acoustic_signal import (SignalSpec, invert_position,
                                      pressure_at, wave_residual)
from milnesea.errors import DomainError
from milnesea.medium import CoefficientProfile, MediumSpec
from milnesea.scenario import config_to_dict, load_config

WATER = dict(amplitude=1.0, sound_speed=1480.0)


def water_spec(k=0.1):
    return SignalSpec.from_wave_number(WATER["amplitude"],
                                       WATER["sound_speed"], k)


class TestSignalSpec:
    def test_builders_agree(self):
        a = water_spec()
        b = SignalSpec.from_wavelength(1.0, 1480.0, a.wavelength)
        c = SignalSpec.from_angular_frequency(1.0, 1480.0, a.angular_frequency)
        for other in (b, c):
            assert other.wave_number == pytest.approx(0.1, rel=1e-15)
            assert other.angular_frequency == pytest.approx(148.0, rel=1e-15)

    def test_derived_quantities(self):
        spec = water_spec()
        assert spec.angular_frequency == 148.0
        assert spec.wavelength == pytest.approx(62.83185307179586, rel=1e-15)

    def test_angular_frequency_computed_once(self):
        spec = water_spec()
        # stored at construction, outside the fields
        assert "angular_frequency" not in {
            f.name for f in dataclasses.fields(spec)}
        assert vars(spec)["angular_frequency"] == 148.0
        # so equality, hashing and the config echo ignore it
        fresh = SignalSpec(1.0, 1480.0, 0.1)
        assert spec == fresh and hash(spec) == hash(fresh)
        config = load_config(json.dumps({"signal": {
            "amplitude": 1.0, "angular_frequency": 148.0}}))
        assert config_to_dict(config)["signal"] == {
            "amplitude": 1.0, "sound_speed": 1480.0, "wave_number": 0.1}
        # a replaced wave number is not read from the old instance
        moved = dataclasses.replace(spec, wave_number=0.37)
        assert moved.angular_frequency.hex() == (1480.0 * 0.37).hex()
        for built in (water_spec(),
                      SignalSpec.from_wavelength(1.0, 1480.0, spec.wavelength),
                      SignalSpec.from_angular_frequency(1.0, 1480.0, 148.0)):
            assert built.angular_frequency.hex() == \
                (built.sound_speed * built.wave_number).hex()
            assert built.angular_frequency == pytest.approx(148.0,
                                                            rel=1e-15)

    def test_rhs_classes_keep_the_attribute_fast_path(self):
        # milne_rhs reads these on every call. A value written through
        # instance.__dict__ (as cached_property does) gives the instance a
        # real dict, and every attribute read on it then leaves CPython's
        # specialised fast path: ~20 ns against ~3 ns per read on 3.11.7
        for cls in (SignalSpec, MediumSpec, CoefficientProfile):
            assert not [name for name, attr in vars(cls).items()
                        if isinstance(attr, functools.cached_property)], cls
        assert "angular_frequency" not in {
            f.name for f in dataclasses.fields(SignalSpec)}
        assert "angular_frequency" not in vars(SignalSpec)

    def test_positivity(self):
        with pytest.raises(ValueError):
            SignalSpec.from_wave_number(0.0, 1480.0, 0.1)
        with pytest.raises(ValueError):
            SignalSpec.from_wavelength(1.0, 1480.0, -5.0)
        # zero must not slip through as a division error before the check
        with pytest.raises(ValueError, match="wave_number must be positive"):
            SignalSpec.from_wave_number(1.0, 1480.0, 0.0)
        with pytest.raises(ValueError, match="sound_speed must be positive"):
            SignalSpec.from_angular_frequency(1.0, 0.0, 148.0)
        for w in (0.0, -148.0):
            with pytest.raises(ValueError, match="angular_frequency must be "
                                                 "positive"):
                SignalSpec.from_angular_frequency(1.0, 1480.0, w)

    def test_amplitude_must_be_finite(self):
        with pytest.raises(ValueError, match="amplitude must be finite, "
                                             "got inf"):
            SignalSpec(math.inf, 1480.0, 0.1)


class TestPressure:
    def test_crest_at_origin(self):
        spec = water_spec()
        assert pressure_at(spec, 0.0, 0.0) == 1.0

    def test_travels_at_sound_speed(self):
        spec = water_spec()
        x = np.linspace(-50.0, 50.0, 101)
        for shift in (0.1, 1.7):
            before = pressure_at(spec, x, 2.0)
            after = pressure_at(spec, x + spec.sound_speed * shift, 2.0 + shift)
            np.testing.assert_allclose(after, before, atol=1e-12)

    def test_periodic_in_wavelength(self):
        spec = water_spec()
        assert pressure_at(spec, 7.0 + spec.wavelength, 0.3) == pytest.approx(
            pressure_at(spec, 7.0, 0.3), abs=1e-12)


class TestInvertPosition:
    def test_frozen_value(self):
        # p = 1/2 at t = 1: acos(0.5)/k + c t = (pi/3)/0.1 + 1480
        spec = water_spec()
        assert invert_position(spec, 0.5, 1.0) == pytest.approx(
            1490.4719755119659, rel=1e-14)

    def test_round_trip_over_many_branches(self):
        spec = water_spec()
        lam = spec.wavelength
        t = 0.37
        xs = np.linspace(-3.0 * lam, 3.0 * lam, 1000)
        for x in xs:
            p = pressure_at(spec, x, t)
            p = min(max(p, -1.0), 1.0)
            theta = spec.wave_number * (x - spec.sound_speed * t)
            branch = math.floor(theta / (2.0 * math.pi))
            frac = theta - 2.0 * math.pi * branch
            if frac <= math.pi:
                back = invert_position(spec, p, t, branch=branch, sign=1)
            else:
                back = invert_position(spec, p, t, branch=branch + 1, sign=-1)
            assert abs(back - x) < 1e-9 * lam

    def test_out_of_range_pressure(self):
        spec = water_spec()
        with pytest.raises(DomainError):
            invert_position(spec, 1.001, 0.0)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            invert_position(water_spec(), 0.5, 0.0, sign=2)


class TestWaveResidual:
    def test_exact_field_residual_is_second_order_small(self):
        spec = water_spec()
        lam = spec.wavelength
        h = lam / 1000.0
        scale = spec.amplitude * spec.angular_frequency ** 2
        worst = 0.0
        for x in np.linspace(0.0, lam, 5):
            for t in np.linspace(0.0, 2.0 * math.pi / spec.angular_frequency, 5):
                worst = max(worst, abs(wave_residual(spec, spec.sound_speed,
                                                     x, t, h)))
        assert worst < 1e-6 * scale

    def test_residual_converges_at_second_order(self):
        spec = water_spec()
        h = spec.wavelength / 1000.0
        x, t = 3.1, 0.0123
        r1 = abs(wave_residual(spec, spec.sound_speed, x, t, h))
        r2 = abs(wave_residual(spec, spec.sound_speed, x, t, h / 2.0))
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_dalembert_pair_passes(self):
        # a general d'Alembert solution f1(x + c t) + f2(x - c t), not
        # just the sinusoid: two counter-propagating pulses
        c = 2.0

        def pulses(x, t):
            return np.exp(-(x + c * t) ** 2) + np.exp(-(x - c * t - 1.0) ** 2)

        res = wave_residual(pulses, c, 0.4, 0.1, 1e-3)
        assert abs(res) < 1e-6

    def test_non_solution_stalls_at_its_defect(self):
        # field travelling at half the operator's speed; its continuous
        # defect was derived symbolically with sympy:
        #   c^2 pxx - ptt = -(3/4) c^2 k^2 cos(k (x - c t / 2))
        sympy = pytest.importorskip("sympy")
        c, k = 1480.0, 0.1
        xs, ts, cs, ks = sympy.symbols("x t c k", positive=True)
        wrong = sympy.cos(ks * (xs - cs * ts / 2))
        defect = sympy.simplify(cs ** 2 * sympy.diff(wrong, xs, 2)
                                - sympy.diff(wrong, ts, 2))
        x, t = 11.0, 0.002

        def field(xx, tt):
            return np.cos(k * (xx - c * tt / 2.0))

        want = float(defect.subs({xs: x, ts: t, cs: c, ks: k}))
        for h in (0.1, 0.05, 0.025):
            got = wave_residual(field, c, x, t, h)
            assert got == pytest.approx(want, rel=1e-4)

    def test_true_field_satisfies_wave_equation_symbolically(self):
        sympy = pytest.importorskip("sympy")
        xs, ts, cs, ks, As = sympy.symbols("x t c k A", positive=True)
        p = As * sympy.cos(ks * (xs - cs * ts))
        defect = sympy.simplify(cs ** 2 * sympy.diff(p, xs, 2)
                                - sympy.diff(p, ts, 2))
        assert defect == 0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            wave_residual(water_spec(), 1480.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("c", [0.0, -1480.0])
    def test_rejects_nonpositive_speed(self, c):
        with pytest.raises(ValueError, match="sound speed must be positive"):
            wave_residual(water_spec(), c, 0.0, 0.0, 0.1)
