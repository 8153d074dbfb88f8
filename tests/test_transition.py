"""Medium transition matrices: rotation algebra and the two assembly routes."""

import math

import numpy as np
import pytest

from milnesea.acoustic_signal import SignalSpec
from milnesea.medium import CoefficientProfile, MediumSpec
from milnesea.milne import q_plus_minus_squared
from milnesea.transition import (FormComparison, RotationMatrix,
                                 TransitionMatrix, compare_forms,
                                 composed_from_q, expanded_from_q, rotation)

ANGLES = [-3.0, -1.2, -0.3, 0.0, 0.4, 1.0, 2.7]

SPEC = SignalSpec.from_wave_number(1.0, 1480.0, 0.1)
MEDIUM = MediumSpec(CoefficientProfile(kind="constant", base=1.0),
                    CoefficientProfile(kind="constant", base=0.5))


class TestRotation:
    def test_orthogonal_unit_determinant(self):
        for a in ANGLES:
            r = rotation(a).entries
            np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_angle_wrapped(self):
        r = rotation(3.0 * math.pi)
        assert abs(r.angle) == pytest.approx(math.pi, rel=1e-12)
        r2 = rotation(-0.5)
        assert r2.angle == pytest.approx(-0.5, rel=1e-12)

    def test_composition_adds_angles(self):
        a, b = 0.7, -1.1
        np.testing.assert_allclose(rotation(a).entries @ rotation(b).entries,
                                   rotation(a + b).entries, atol=1e-12)


class TestComposedRoute:
    def test_forced_unit_q_collapses_to_rotation(self):
        # with both envelope squares pinned to 1 the kernel is itself a
        # rotation by 2*delta and the sandwich reduces to 2*tau - 2*delta
        for delta in ANGLES:
            for tau in ANGLES:
                m = composed_from_q(1.0, 1.0, delta, tau)
                np.testing.assert_allclose(
                    m, rotation(2.0 * tau - 2.0 * delta).entries, atol=1e-12)

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
        j = rotation(math.pi / 2.0).entries
        np.testing.assert_allclose(m, j @ kernel @ j, atol=1e-15)
        assert not np.allclose(m, kernel, atol=1e-3)


class TestExpandedRoute:
    def test_zero_delta_is_pure_rotation(self):
        for tau in ANGLES:
            m = expanded_from_q(1.0, -1.0, 0.0, tau)
            np.testing.assert_allclose(m, rotation(tau).entries, atol=1e-12)

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
        np.testing.assert_array_equal(cmp.composed.entries,
                                      composed_from_q(qp, qm, delta, tau))
        np.testing.assert_array_equal(cmp.expanded.entries,
                                      expanded_from_q(qp, qm, delta, tau))

    def test_metadata_recorded(self):
        cmp = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, 1.5)
        for m, provenance in ((cmp.composed, "composed"),
                              (cmp.expanded, "expanded")):
            assert m.provenance == provenance
            assert m.params == (1.0, 0.2, 0.9, 1.5)
            assert m.rotation.angle == pytest.approx(0.9, rel=1e-12)

    def test_array_times_give_stacked_matrices(self):
        # each time of an array evaluation is the scalar evaluation, bit
        # for bit, and the forms stay apart
        ts = np.array([[0.5, 1.5], [2.5, -3.0]])
        cmp = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, ts)
        assert cmp.composed.entries.shape == (2, 2, 2, 2)
        assert cmp.discrepancy.shape == (2, 2)
        for idx in np.ndindex(ts.shape):
            one = compare_forms(1.0, 0.2, 0.9, SPEC, MEDIUM, float(ts[idx]))
            np.testing.assert_array_equal(cmp.composed.entries[idx],
                                          one.composed.entries)
            np.testing.assert_array_equal(cmp.expanded.entries[idx],
                                          one.expanded.entries)
            assert cmp.discrepancy[idx] == one.discrepancy
            assert one.discrepancy > 0


class TestFormDiscrepancy:
    def test_frozen_reference_point(self):
        cmp = compare_forms(1.0, 0.0, math.pi / 4.0, SPEC, MEDIUM, 1.5)
        assert isinstance(cmp, FormComparison)
        assert cmp.discrepancy == pytest.approx(0.7071067811865474, abs=1e-9)

    def test_discrepancy_is_max_entry_gap(self):
        cmp = compare_forms(0.8, 0.3, 1.0, SPEC, MEDIUM, 0.5)
        gap = np.max(np.abs(cmp.composed.entries - cmp.expanded.entries))
        assert cmp.discrepancy == gap

    def test_both_matrices_returned(self):
        cmp = compare_forms(1.0, 0.1, 0.4, SPEC, MEDIUM, 2.0)
        assert cmp.composed.provenance == "composed"
        assert cmp.expanded.provenance == "expanded"
        assert cmp.composed.params == cmp.expanded.params


class TestContainers:
    def test_entries_read_only(self):
        m = rotation(0.3)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0
        cmp = compare_forms(1.0, 0.1, 0.2, SPEC, MEDIUM, 1.0)
        for t in (cmp.composed, cmp.expanded):
            with pytest.raises(ValueError):
                t.entries[1, 1] = 0.0
        stacked = compare_forms(1.0, 0.1, 0.2, SPEC, MEDIUM, np.ones(3))
        with pytest.raises(ValueError):
            stacked.composed.entries[2, 1, 1] = 0.0

    def test_bad_provenance_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.eye(2), "guessed", (1.0, 0.0, 0.0, 0.0),
                             rotation(0.0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.eye(3), 0.0)
