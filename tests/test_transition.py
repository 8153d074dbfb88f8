"""Medium transition matrices: rotation algebra and the two assembly routes."""

import math

import numpy as np
import pytest

from milnesea.acoustic_signal import SignalSpec
from milnesea.medium import CoefficientProfile, MediumSpec
from milnesea.milne import q_plus_minus_squared
from milnesea.transition import (FormComparison, compare_forms,
                                 composed_from_q, expanded_from_q, rotation)

ANGLES = [-3.0, -1.2, -0.3, 0.0, 0.4, 1.0, 2.7]

SPEC = SignalSpec.from_wave_number(1.0, 1480.0, 0.1)
MEDIUM = MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                    CoefficientProfile(kind="constant", base=0.5))


class TestRotation:
    def test_orthogonal_unit_determinant(self):
        for a in ANGLES:
            r = rotation(a)
            np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_entries_are_cos_and_sin_of_the_angle(self):
        for a in ANGLES + [3.0 * math.pi]:
            c, s = math.cos(a), math.sin(a)
            r = rotation(a)
            assert type(r) is np.ndarray and r.dtype == float
            assert r.tolist() == [[c, -s], [s, c]]

    def test_composition_adds_angles(self):
        a, b = 0.7, -1.1
        np.testing.assert_allclose(rotation(a) @ rotation(b),
                                   rotation(a + b), atol=1e-12)


class TestComposedRoute:
    def test_forced_unit_q_collapses_to_rotation(self):
        # with both envelope squares pinned to 1 the kernel is itself a
        # rotation by 2*delta and the sandwich reduces to 2*tau - 2*delta
        for delta in ANGLES:
            for tau in ANGLES:
                m = composed_from_q(1.0, 1.0, delta, tau)
                np.testing.assert_allclose(
                    m, rotation(2.0 * tau - 2.0 * delta), atol=1e-12)

    def test_determinant_identity(self):
        # det = cos^2(2 delta) + qp qm sin^2(2 delta); the rotations
        # contribute det 1 each
        rng = np.random.default_rng(11)
        for _ in range(100):
            qp, qm = rng.uniform(-2.0, 2.0, size=2)
            delta, tau = rng.uniform(-math.pi, math.pi, size=2)
            m = composed_from_q(qp, qm, delta, tau)
            want = math.cos(2 * delta) ** 2 + qp * qm * math.sin(
                2 * delta) ** 2
            assert np.linalg.det(m) == pytest.approx(want, abs=1e-9)

    def test_same_rotation_both_sides(self):
        # not a similarity transform: for tau = pi/2 both factors are the
        # quarter turn J, and J K J != K in general
        qp, qm, delta = 0.3, -0.3, 0.5
        m = composed_from_q(qp, qm, delta, math.pi / 2.0)
        c2, s2 = math.cos(2 * delta), math.sin(2 * delta)
        kernel = np.array([[c2, qm * s2], [-qp * s2, c2]])
        j = rotation(math.pi / 2.0)
        np.testing.assert_allclose(m, j @ kernel @ j, atol=1e-15)
        assert not np.allclose(m, kernel, atol=1e-3)


class TestExpandedRoute:
    def test_zero_delta_is_pure_rotation(self):
        for tau in ANGLES:
            m = expanded_from_q(1.0, -1.0, 0.0, tau)
            np.testing.assert_allclose(m, rotation(tau), atol=1e-12)

    def test_entry_formulas(self):
        qp, qm, delta, tau = 0.7, -0.7, 0.4, 1.1
        m = expanded_from_q(qp, qm, delta, tau)
        cd, sd = math.cos(delta), math.sin(delta)
        ct, st = math.cos(tau), math.sin(tau)
        assert m[0, 0] == pytest.approx(ct * cd + qm * st * sd, rel=1e-14)
        assert m[0, 1] == pytest.approx(qm * sd * ct - st * cd, rel=1e-14)
        assert m[1, 0] == pytest.approx(st * cd - qp * sd * ct, rel=1e-14)
        assert m[1, 1] == pytest.approx(cd * ct + qp * st * sd, rel=1e-14)


class TestEnvelopeDriven:
    def test_wrappers_agree_with_direct_construction(self):
        # compare_forms feeds the medium's envelope squares to both forms
        e_m, delta, tau, t = 1.0, 0.2, 0.3, 1.5
        qp, qm = q_plus_minus_squared(e_m, tau, SPEC, MEDIUM, t)
        cmp = compare_forms(e_m, delta, tau, SPEC, MEDIUM, t)
        np.testing.assert_array_equal(cmp.composed,
                                      composed_from_q(qp, qm, delta, tau))
        np.testing.assert_array_equal(cmp.expanded,
                                      expanded_from_q(qp, qm, delta, tau))

    def test_metadata_recorded(self):
        # the evaluation times, a Python float for scalar t
        cmp = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, 1.5)
        assert type(cmp.t) is float and cmp.t == 1.5
        ts = np.array([0.5, 1.5, 2.5])
        stacked = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, ts)
        assert stacked.t.tolist() == ts.tolist()
        assert stacked.discrepancy.shape == stacked.t.shape == (3,)

    def test_array_times_give_stacked_matrices(self):
        # each time of an array evaluation is the scalar evaluation, bit
        # for bit, and the forms stay apart
        ts = np.array([[0.5, 1.5], [2.5, -3.0]])
        cmp = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, ts)
        assert cmp.composed.shape == cmp.expanded.shape == (2, 2, 2, 2)
        assert cmp.discrepancy.shape == (2, 2)
        for idx in np.ndindex(ts.shape):
            one = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, float(ts[idx]))
            np.testing.assert_array_equal(cmp.composed[idx], one.composed)
            np.testing.assert_array_equal(cmp.expanded[idx], one.expanded)
            assert cmp.discrepancy[idx] == one.discrepancy
            assert one.discrepancy > 0


class TestFormDiscrepancy:
    def test_frozen_reference_point(self):
        cmp = compare_forms(1.0, 0.0, math.pi / 4.0, SPEC, MEDIUM, 1.5)
        assert isinstance(cmp, FormComparison)
        assert cmp.discrepancy == pytest.approx(0.7071067811865474, abs=1e-9)

    def test_discrepancy_is_max_entry_gap(self):
        cmp = compare_forms(0.8, 0.3, 1.0, SPEC, MEDIUM, 0.5)
        gap = np.max(np.abs(cmp.composed - cmp.expanded))
        assert cmp.discrepancy == gap

    def test_both_matrices_returned(self):
        cmp = compare_forms(1.0, 0.1, 0.4, SPEC, MEDIUM, 2.0)
        assert cmp.composed.shape == cmp.expanded.shape == (2, 2)
        assert not np.array_equal(cmp.composed, cmp.expanded)


class TestContainers:
    def test_entries_read_only(self):
        m = rotation(0.3)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        cmp = compare_forms(1.0, 0.1, 0.2, SPEC, MEDIUM, 1.0)
        for entries in (cmp.composed, cmp.expanded):
            with pytest.raises(ValueError):
                entries[1, 1] = 0.0
        stacked = compare_forms(1.0, 0.1, 0.2, SPEC, MEDIUM, np.ones(3))
        for entries in (stacked.composed, stacked.expanded):
            with pytest.raises(ValueError):
                entries[2, 1, 1] = 0.0
