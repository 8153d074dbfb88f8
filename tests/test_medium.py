"""Coefficient profile and medium validation checks."""

import math
import pickle

import numpy as np
import pytest

from milnesea.errors import InvalidProfileError
from milnesea.medium import BUMP_KINDS, CoefficientProfile, MediumSpec

EXP_HALF = 0.6065306597126334      # exp(-1/2)
SECH2_1 = 0.41997434161402614      # 1 / cosh(1)^2


def assert_scalar_reads_match_array(prof):
    ts = [0.0, -0.0, 1e-3, 0.7, 354.9, 355.0, 355.1, 709.0, 711.0,
          1e200, math.inf, math.nan]
    ts += [-t for t in ts]
    got = np.array([prof.value(t) for t in ts]).tobytes()
    assert got == prof.value(np.array(ts)).tobytes()
    # an np.float64 t takes the scalar kernel too
    assert got == np.array([prof.value(np.float64(t)) for t in ts]).tobytes()


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

    def test_feature_window(self):
        prof = gaussian(width=0.5)
        assert prof.feature_window == (0.0, 20.0, 0.5)
        sech2 = CoefficientProfile(kind="sech2-bump", amplitude=0.5,
                                   center=-1.0, width=0.25)
        assert sech2.feature_window == (-6.0, 4.0, 0.25)
        # at the window's ends a unit-base bump reads its base exactly
        for bump in (prof, sech2):
            start, end, _ = bump.feature_window
            assert bump.value(start) == bump.value(end) == 1.0
        assert CoefficientProfile(kind="constant").feature_window is None
        table = CoefficientProfile(kind="table", table=((0.0, 1.0),))
        assert table.feature_window is None

    @pytest.mark.parametrize("profile", [
        CoefficientProfile(kind="constant", base=0.7),
        gaussian(),
        CoefficientProfile(kind="sech2-bump", amplitude=0.2, width=2.0),
        CoefficientProfile(kind="table", table=((0.0, 1.0), (1.0, 3.0)))],
        ids=["constant", "gaussian-bump", "sech2-bump", "table"])
    def test_pickled_copy_reads_the_same(self, profile):
        # the kernels are closures; the copy builds its own
        copy = pickle.loads(pickle.dumps(profile))
        assert copy == profile
        ts = [-3.0, 0.25, 1.0, 10.5]
        assert [copy.value(t) for t in ts] == [profile.value(t) for t in ts]
        assert (copy.value(np.array(ts)).tobytes()
                == profile.value(np.array(ts)).tobytes())

    # x = (t - center) / width is t itself here: c * c overflows past
    # |x| ~ 355 and cosh itself past ~710
    @pytest.mark.parametrize("kind", BUMP_KINDS)
    @pytest.mark.parametrize("base, amplitude", [
        (1.0, 0.5), (0.0, 0.5), (-0.0, -0.5), (0.0, -0.5)])
    def test_scalar_read_has_the_array_reads_bytes(self, kind, base,
                                                   amplitude):
        prof = CoefficientProfile(kind=kind, base=base, amplitude=amplitude,
                                  center=0.0, width=1.0)
        assert_scalar_reads_match_array(prof)

    @pytest.mark.parametrize("prof", [
        CoefficientProfile(kind="constant", base=0.7),
        CoefficientProfile(kind="constant", base=-0.0),
        CoefficientProfile(kind="table", table=((0.5, 2.0),)),
        CoefficientProfile(kind="table", table=(
            (-2.0, 0.5), (-1.0, -0.0), (0.0, 0.0), (1.0, 3.0),
            (700.0, 1.0)))],
        ids=["constant", "constant-minus-zero", "table-one-knot",
             "table-signed-zeros"])
    def test_scalar_read_of_other_kinds_has_the_array_bytes(self, prof):
        assert_scalar_reads_match_array(prof)

    # numpy scalar fields warn on overflow where float fields do not
    @pytest.mark.parametrize("kind", BUMP_KINDS)
    def test_float64_fields_read_quietly(self, kind):
        prof = CoefficientProfile(kind=kind, base=np.float64(1.0),
                                  amplitude=np.float64(0.5),
                                  center=np.float64(0.0),
                                  width=np.float64(1e-3))
        assert_scalar_reads_match_array(prof)

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
    # the ranges are proven when the medium is built; omega.value(t) and
    # beta.value(t) only evaluate the profiles
    def test_omega_positive_ok(self):
        med = MediumSpec(gaussian(amplitude=-0.5),
                         CoefficientProfile(kind="constant", base=0.0))
        assert med.omega.value(10.0) == 0.5

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
        assert med.beta.value(10.0) == 0.0
        assert med.beta.value(30.0) == pytest.approx(0.1)

    def test_array_access(self):
        med = MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                         CoefficientProfile(kind="constant", base=2.0))
        np.testing.assert_array_equal(med.omega.value(np.zeros(3)),
                                      np.ones(3))
        np.testing.assert_array_equal(med.beta.value(np.zeros(3)),
                                      np.full(3, 2.0))


class TestMediumSpec:
    def test_accepts_standard_medium(self):
        med = MediumSpec(gaussian(amplitude=0.2),
                         CoefficientProfile(kind="constant", base=0.5))
        assert med.omega.value(10.0) == pytest.approx(1.2)
        assert med.beta.value(0.0) == 0.5

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

    @pytest.mark.parametrize("kind", BUMP_KINDS)
    @pytest.mark.parametrize("base, amplitude", [
        (1.7e308, 1.7e308), (-1.7e308, -1.7e308)])
    def test_range_that_overflows_is_refused(self, kind, base, amplitude):
        # each number is finite, but base + amplitude is not
        with pytest.raises(InvalidProfileError,
                           match="profile range must be finite"):
            CoefficientProfile(kind=kind, base=base, amplitude=amplitude)

    def test_beta_must_stay_nonnegative(self):
        with pytest.raises(InvalidProfileError):
            MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                       CoefficientProfile(kind="constant", base=-0.1))
