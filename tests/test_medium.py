"""Coefficient profile and medium validation checks."""

import math

import numpy as np
import pytest

from milnesea.errors import InvalidProfileError
from milnesea.medium import (CoefficientProfile, MediumSpec,
                             validate_asymptotics)

EXP_HALF = 0.6065306597126334      # exp(-1/2)
SECH2_1 = 0.41997434161402614      # 1 / cosh(1)^2


def gaussian(base=1.0, amplitude=0.5, center=10.0, width=1.0):
    return CoefficientProfile(kind="gaussian-bump", base=base,
                              amplitude=amplitude, center=center, width=width)


class TestProfiles:
    def test_constant(self):
        prof = CoefficientProfile(kind="constant", base=0.7)
        assert prof.value(-100.0) == 0.7
        assert prof.value(3.0) == 0.7
        np.testing.assert_array_equal(prof.value(np.arange(4.0)),
                                      np.full(4, 0.7))

    def test_gaussian_bump_peak_and_shape(self):
        prof = gaussian()
        assert prof.value(10.0) == 1.5
        assert prof.value(11.0) == pytest.approx(1.0 + 0.5 * EXP_HALF,
                                                 rel=1e-14)
        # symmetric about the center
        assert prof.value(10.0 + 2.3) == pytest.approx(prof.value(10.0 - 2.3),
                                                       rel=1e-12)

    def test_sech2_bump_values(self):
        prof = CoefficientProfile(kind="sech2-bump", base=1.0, amplitude=0.2,
                                  center=0.0, width=2.0)
        assert prof.value(0.0) == pytest.approx(1.2, rel=1e-15)
        assert prof.value(2.0) == pytest.approx(1.0 + 0.2 * SECH2_1, rel=1e-14)

    def test_table_hits_knots_exactly_and_clamps(self):
        prof = CoefficientProfile(kind="table",
                                  table=((0.0, 1.0), (1.0, 3.0), (4.0, 3.0)))
        assert prof.value(0.0) == 1.0
        assert prof.value(1.0) == 3.0
        assert prof.value(0.5) == pytest.approx(2.0)
        assert prof.value(-5.0) == 1.0   # clamped left
        assert prof.value(99.0) == 3.0   # clamped right

    def test_kind_validation(self):
        with pytest.raises(InvalidProfileError):
            CoefficientProfile(kind="parabola")
        with pytest.raises(InvalidProfileError):
            CoefficientProfile(kind="gaussian-bump", width=0.0)
        with pytest.raises(InvalidProfileError):
            CoefficientProfile(kind="table", table=())
        with pytest.raises(InvalidProfileError):
            CoefficientProfile(kind="table", table=((1.0, 1.0), (1.0, 2.0)))


class TestCoefficientAccess:
    # the ranges are proven when the medium is built; omega(t) and beta(t)
    # only evaluate the profiles
    def test_omega_positive_ok(self):
        med = MediumSpec(gaussian(amplitude=-0.5),
                         CoefficientProfile(kind="constant", base=0.0))
        assert med.omega(10.0) == 0.5

    def test_omega_rejects_nonpositive(self):
        with pytest.raises(InvalidProfileError,
                           match="omega profile dips to -0.5"):
            MediumSpec(gaussian(amplitude=-1.5),
                       CoefficientProfile(kind="constant", base=0.0))

    def test_beta_rejects_negative(self):
        one = CoefficientProfile(kind="constant", base=1.0)
        with pytest.raises(InvalidProfileError,
                           match="beta profile dips to -0.4"):
            MediumSpec(one, gaussian(base=0.1, amplitude=-0.5))
        # a dip that just touches zero is fine, and decays in the tails
        med = MediumSpec(one, gaussian(base=0.1, amplitude=-0.1))
        assert med.beta(10.0) == 0.0
        assert med.beta(30.0) == pytest.approx(0.1)

    def test_array_access(self):
        med = MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                         CoefficientProfile(kind="constant", base=2.0))
        np.testing.assert_array_equal(med.omega(np.zeros(3)), np.ones(3))
        np.testing.assert_array_equal(med.beta(np.zeros(3)),
                                      np.full(3, 2.0))


class TestAsymptotics:
    def test_settled_gaussian(self):
        assert validate_asymptotics(gaussian(), horizon=30.0, eps=1e-9)

    def test_horizon_inside_bump_fails_even_with_huge_eps(self):
        assert not validate_asymptotics(gaussian(), horizon=12.0, eps=10.0)

    def test_eps_respected(self):
        # at 8 sigma past the center the bump is ~ 0.5 * 1.3e-14
        assert not validate_asymptotics(gaussian(), horizon=18.0, eps=1e-16)
        assert validate_asymptotics(gaussian(), horizon=18.0, eps=1e-9)

    def test_constant_always_settled(self):
        prof = CoefficientProfile(kind="constant", base=0.3)
        assert validate_asymptotics(prof, horizon=1.0, eps=1e-12)

    def test_table_compares_to_its_end_knots(self):
        prof = CoefficientProfile(kind="table",
                                  table=((0.0, 0.2), (1.0, 0.7)))
        assert validate_asymptotics(prof, horizon=5.0, eps=1e-12)
        # at t = 0.5 the table still reads 0.45, not its end value 0.7
        assert not validate_asymptotics(prof, horizon=0.5, eps=0.1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            validate_asymptotics(gaussian(), horizon=-1.0)

    @pytest.mark.parametrize("args", [(math.nan,), (1.0, math.nan)])
    def test_rejects_nan_arguments(self, args):
        # a nan horizon or eps slipped past `<= 0` and read as settled
        prof = CoefficientProfile(kind="constant", base=1.0)
        with pytest.raises(ValueError, match="horizon and eps must be "
                                             "positive"):
            validate_asymptotics(prof, *args)


class TestMediumSpec:
    def test_accepts_standard_medium(self):
        med = MediumSpec(gaussian(amplitude=0.2),
                         CoefficientProfile(kind="constant", base=0.5))
        assert med.omega(10.0) == pytest.approx(1.2)
        assert med.beta(0.0) == 0.5

    def test_omega_background_must_be_one(self):
        with pytest.raises(InvalidProfileError):
            MediumSpec(CoefficientProfile(kind="constant", base=1.2),
                       CoefficientProfile(kind="constant", base=0.0))

    def test_omega_must_stay_positive(self):
        with pytest.raises(InvalidProfileError):
            MediumSpec(gaussian(amplitude=-1.5),
                       CoefficientProfile(kind="constant", base=0.0))

    @pytest.mark.parametrize("which", ["omega", "beta"])
    def test_nan_table_knot_fails_the_range_proof(self, which):
        # the profile refuses the knot itself, before any medium is built
        profiles = {"omega": CoefficientProfile(kind="constant", base=1.0),
                    "beta": CoefficientProfile(kind="constant", base=0.0)}
        with pytest.raises(InvalidProfileError, match=r"profile table must "
                                                      r"be finite, got .*nan"):
            profiles[which] = CoefficientProfile(
                kind="table", table=((0.0, math.nan), (1.0, 1.0)))
            MediumSpec(profiles["omega"], profiles["beta"])

    @pytest.mark.parametrize("profile, key", [
        ({"kind": "constant", "base": math.inf}, "base"),
        ({"kind": "table", "table": ((math.nan, 0.5), (1.0, 0.5))}, "table"),
        ({"kind": "table", "table": ((0.0, 0.5), (1.0, math.inf))}, "table"),
        ({"kind": "gaussian-bump", "base": 0.5, "amplitude": math.inf},
         "amplitude"),
        ({"kind": "sech2-bump", "base": 0.5, "amplitude": math.nan},
         "amplitude"),
        ({"kind": "gaussian-bump", "base": 0.5, "center": math.nan},
         "center"),
    ], ids=["constant-inf", "knot-time-nan", "knot-value-inf",
            "bump-amplitude-inf", "bump-amplitude-nan", "bump-center-nan"])
    def test_non_finite_numbers_are_refused(self, profile, key):
        # each of these would pass the range proof: min(0.0, nan) is 0.0,
        # and a nan knot time passes the increasing-times check
        with pytest.raises(InvalidProfileError,
                           match=f"profile {key} must be finite"):
            CoefficientProfile(**profile)

    def test_beta_must_stay_nonnegative(self):
        with pytest.raises(InvalidProfileError):
            MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                       CoefficientProfile(kind="constant", base=-0.1))
