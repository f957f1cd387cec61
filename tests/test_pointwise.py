"""Pointwise structure tensors: frozen values at (1, 1) and random-sample
identities for J, g, P, Q."""

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import pointwise as pw
from nks3 import quat as qt
from nks3.errors import DomainError

SQRT3 = np.sqrt(3.0)

ORIGIN = pw.AmbientPoint(qt.ONE, qt.ONE)


def _z(u, v, at=ORIGIN):
    return pw.TangentVector(at, np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def test_ambient_point_validates_norm():
    with pytest.raises(DomainError):
        pw.AmbientPoint(2.0 * qt.ONE, qt.ONE)


def test_ambient_point_batch_validates_every_member():
    good = np.stack([qt.ONE, qt.E1])
    pts = pw.AmbientPoint(good, good[::-1])
    assert pts.p.shape == (2, 4)
    with pytest.raises(DomainError):
        pw.AmbientPoint(np.stack([qt.ONE, 2.0 * qt.E1]), good)


def test_tangent_vector_validates_tangency():
    with pytest.raises(DomainError):
        pw.TangentVector(ORIGIN, qt.ONE, np.zeros(4))


class TestProjection:
    def test_radial_direction_annihilated(self):
        z = pw.project_tangent(ORIGIN, qt.ONE, np.zeros(4))
        npt.assert_array_equal(z.u, np.zeros(4))
        npt.assert_array_equal(z.v, np.zeros(4))

    def test_tangent_pair_unchanged(self):
        z = pw.project_tangent(ORIGIN, qt.E1, qt.E2)
        npt.assert_array_equal(z.u, qt.E1)
        npt.assert_array_equal(z.v, qt.E2)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            at = pw.random_point(rng)
            u, v = rng.standard_normal((2, 4))
            once = pw.project_tangent(at, u, v)
            twice = pw.project_tangent(at, once.u, once.v)
            npt.assert_allclose(once.u, twice.u, atol=1e-15)
            npt.assert_allclose(once.v, twice.v, atol=1e-15)


class TestAlmostComplexStructure:
    def test_value_at_origin_first_slot(self):
        # direct substitution: (U, V) = (i, 0) at (1, 1)
        jz = pw.apply_J(_z(qt.E1, np.zeros(4)))
        npt.assert_allclose(jz.u, -qt.E1 / SQRT3, atol=1e-15)
        npt.assert_allclose(jz.v, -2.0 * qt.E1 / SQRT3, atol=1e-15)

    def test_value_at_origin_second_slot(self):
        jz = pw.apply_J(_z(np.zeros(4), qt.E1))
        npt.assert_allclose(jz.u, 2.0 * qt.E1 / SQRT3, atol=1e-15)
        npt.assert_allclose(jz.v, qt.E1 / SQRT3, atol=1e-15)

    def test_squares_to_minus_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            at = pw.random_point(rng)
            z = pw.random_tangent(rng, at)
            jjz = pw.apply_J(pw.apply_J(z))
            npt.assert_allclose(jjz.u, -z.u, atol=1e-12)
            npt.assert_allclose(jjz.v, -z.v, atol=1e-12)


class TestMetric:
    def test_values_at_origin(self):
        zi0 = _z(qt.E1, np.zeros(4))
        z0i = _z(np.zeros(4), qt.E1)
        assert pw.metric_g(zi0, zi0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert pw.metric_g(zi0, z0i) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            at = pw.random_point(rng)
            z1 = pw.random_tangent(rng, at)
            z2 = pw.random_tangent(rng, at)
            assert pw.metric_g(z1, z2) == pytest.approx(pw.metric_g(z2, z1), abs=1e-12)

    def test_both_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            at = pw.random_point(rng)
            z1 = pw.random_tangent(rng, at)
            z2 = pw.random_tangent(rng, at)
            assert pw.metric_g(z1, z2) == pytest.approx(
                pw.metric_g_hermitian_form(z1, z2), abs=1e-10
            )

    def test_J_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            at = pw.random_point(rng)
            z1 = pw.random_tangent(rng, at)
            z2 = pw.random_tangent(rng, at)
            assert pw.metric_g(pw.apply_J(z1), pw.apply_J(z2)) == pytest.approx(
                pw.metric_g(z1, z2), abs=1e-10
            )

    def test_anchor_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        z1 = pw.random_tangent(rng, pw.random_point(rng))
        z2 = pw.random_tangent(rng, pw.random_point(rng))
        with pytest.raises(DomainError):
            pw.metric_g(z1, z2)


class TestProductStructure:
    def test_value_at_origin(self):
        pz = pw.apply_P(_z(qt.E1, np.zeros(4)))
        npt.assert_allclose(pz.u, np.zeros(4), atol=1e-15)
        npt.assert_allclose(pz.v, qt.E1, atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = pw.random_tangent(rng, pw.random_point(rng))
            ppz = pw.apply_P(pw.apply_P(z))
            npt.assert_allclose(ppz.u, z.u, atol=1e-12)
            npt.assert_allclose(ppz.v, z.v, atol=1e-12)

    def test_g_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            at = pw.random_point(rng)
            z1 = pw.random_tangent(rng, at)
            z2 = pw.random_tangent(rng, at)
            assert pw.metric_g(pw.apply_P(z1), z2) == pytest.approx(
                pw.metric_g(z1, pw.apply_P(z2)), abs=1e-10
            )

    def test_anticommutes_with_J(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            at = pw.random_point(rng)
            z = pw.random_tangent(rng, at)
            w = pw.random_tangent(rng, at)
            pj = pw.apply_P(pw.apply_J(z))
            jp = pw.apply_J(pw.apply_P(z))
            s = pw.TangentVector(at, pj.u + jp.u, pj.v + jp.v)
            assert abs(pw.metric_g(s, w)) <= 1e-10


class TestFactorInvolution:
    def test_definition(self):
        qz = pw.apply_Q(_z(qt.E1, np.zeros(4)))
        npt.assert_allclose(qz.u, -qt.E1, atol=1e-15)
        npt.assert_allclose(qz.v, np.zeros(4), atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(9)
        z = pw.random_tangent(rng, pw.random_point(rng))
        qqz = pw.apply_Q(pw.apply_Q(z))
        npt.assert_allclose(qqz.u, z.u, atol=1e-15)
        npt.assert_allclose(qqz.v, z.v, atol=1e-15)

    def test_expression_through_P_and_J(self):
        # Q Z = (2 P J Z - J Z) / sqrt(3)
        rng = np.random.default_rng(10)
        for _ in range(100):
            at = pw.random_point(rng)
            z = pw.random_tangent(rng, at)
            jz = pw.apply_J(z)
            pjz = pw.apply_P(jz)
            qz = pw.apply_Q(z)
            npt.assert_allclose(qz.u, (2.0 * pjz.u - jz.u) / SQRT3, atol=1e-10)
            npt.assert_allclose(qz.v, (2.0 * pjz.v - jz.v) / SQRT3, atol=1e-10)
