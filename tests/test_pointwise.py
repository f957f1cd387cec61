"""Pointwise structure tensors: frozen values at (1, 1) and random-sample
identities for J, g, P, Q, on component arrays."""

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import pointwise as pw
from nks3 import quat as qt
from nks3.errors import DomainError

SQRT3 = np.sqrt(3.0)

ORIGIN = pw.AmbientPoint(qt.ONE, qt.ONE)
ZERO = np.zeros(4)


def _z(u, v, at=ORIGIN):
    return pw.TangentVector(at, np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _points(rng, n=100):
    """n points (p, q) of the product, each factor (n, 4)."""
    return tuple(qt.unit_rows(rng, rng.standard_normal((2, n, 4))))


def _tangents(rng, p, q):
    """Random tangent pairs (U, V) at the points (p, q)."""
    return pw.project_components(p, q, *rng.standard_normal((2,) + p.shape))


def _J(p, q, u, v):
    return pw.project_components(p, q, *pw.j_components(p, q, u, v))


def _P(p, q, u, v):
    return pw.project_components(p, q, *pw.p_components(p, q, u, v))


def _Q(p, q, u, v):
    return pw.project_components(p, q, *pw.q_components(u, v))


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
        p, q = _points(rng, 50)
        once = pw.project_components(p, q, *rng.standard_normal((2, 50, 4)))
        twice = pw.project_components(p, q, *once)
        npt.assert_allclose(once, twice, atol=1e-15)

    def test_object_form_is_the_component_form(self):
        rng = np.random.default_rng(11)
        p, q = _points(rng, 1)
        u, v = rng.standard_normal((2, 4))
        z = pw.project_tangent(pw.AmbientPoint(p[0], q[0]), u, v)
        pu, pv = pw.project_components(p[0], q[0], u, v)
        assert z.u.tobytes() == pu.tobytes() and z.v.tobytes() == pv.tobytes()


class TestAlmostComplexStructure:
    def test_value_at_origin_first_slot(self):
        # direct substitution: (U, V) = (i, 0) at (1, 1)
        ju, jv = _J(qt.ONE, qt.ONE, qt.E1, ZERO)
        npt.assert_allclose(ju, -qt.E1 / SQRT3, atol=1e-15)
        npt.assert_allclose(jv, -2.0 * qt.E1 / SQRT3, atol=1e-15)

    def test_value_at_origin_second_slot(self):
        ju, jv = _J(qt.ONE, qt.ONE, ZERO, qt.E1)
        npt.assert_allclose(ju, 2.0 * qt.E1 / SQRT3, atol=1e-15)
        npt.assert_allclose(jv, qt.E1 / SQRT3, atol=1e-15)

    def test_squares_to_minus_identity(self):
        rng = np.random.default_rng(1)
        p, q = _points(rng)
        u, v = _tangents(rng, p, q)
        jju, jjv = _J(p, q, *_J(p, q, u, v))
        npt.assert_allclose(jju, -u, atol=1e-12)
        npt.assert_allclose(jjv, -v, atol=1e-12)


class TestMetric:
    def test_values_at_origin(self):
        zi0 = _z(qt.E1, np.zeros(4))
        z0i = _z(np.zeros(4), qt.E1)
        assert pw.metric_g(zi0, zi0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert pw.metric_g(zi0, z0i) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        one = (qt.ONE, qt.ONE)
        assert pw.metric_components(*one, qt.E1, ZERO, qt.E1, ZERO) == pw.metric_g(zi0, zi0)
        assert pw.metric_components(*one, qt.E1, ZERO, ZERO, qt.E1) == pw.metric_g(zi0, z0i)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        p, q = _points(rng)
        z1, z2 = _tangents(rng, p, q), _tangents(rng, p, q)
        npt.assert_allclose(pw.metric_components(p, q, *z1, *z2),
                            pw.metric_components(p, q, *z2, *z1), rtol=0.0, atol=1e-12)

    def test_both_forms_agree(self):
        rng = np.random.default_rng(3)
        p, q = _points(rng)
        z1, z2 = _tangents(rng, p, q), _tangents(rng, p, q)
        npt.assert_allclose(pw.metric_components(p, q, *z1, *z2),
                            pw.metric_hermitian_components(p, q, *z1, *z2),
                            rtol=0.0, atol=1e-10)

    def test_J_invariant(self):
        rng = np.random.default_rng(4)
        p, q = _points(rng)
        z1, z2 = _tangents(rng, p, q), _tangents(rng, p, q)
        npt.assert_allclose(pw.metric_components(p, q, *_J(p, q, *z1), *_J(p, q, *z2)),
                            pw.metric_components(p, q, *z1, *z2), rtol=0.0, atol=1e-10)

    def test_anchor_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        p, q = _points(rng, 2)
        z1, z2 = (pw.project_tangent(pw.AmbientPoint(p[i], q[i]), *rng.standard_normal((2, 4)))
                  for i in range(2))
        with pytest.raises(DomainError):
            pw.metric_g(z1, z2)


class TestProductStructure:
    def test_value_at_origin(self):
        pu, pv = _P(qt.ONE, qt.ONE, qt.E1, ZERO)
        npt.assert_allclose(pu, np.zeros(4), atol=1e-15)
        npt.assert_allclose(pv, qt.E1, atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(6)
        p, q = _points(rng)
        u, v = _tangents(rng, p, q)
        ppu, ppv = _P(p, q, *_P(p, q, u, v))
        npt.assert_allclose(ppu, u, atol=1e-12)
        npt.assert_allclose(ppv, v, atol=1e-12)

    def test_g_symmetric(self):
        rng = np.random.default_rng(7)
        p, q = _points(rng)
        z1, z2 = _tangents(rng, p, q), _tangents(rng, p, q)
        npt.assert_allclose(pw.metric_components(p, q, *_P(p, q, *z1), *z2),
                            pw.metric_components(p, q, *z1, *_P(p, q, *z2)),
                            rtol=0.0, atol=1e-10)

    def test_anticommutes_with_J(self):
        rng = np.random.default_rng(8)
        p, q = _points(rng)
        z, w = _tangents(rng, p, q), _tangents(rng, p, q)
        pj = _P(p, q, *_J(p, q, *z))
        jp = _J(p, q, *_P(p, q, *z))
        s = (pj[0] + jp[0], pj[1] + jp[1])
        assert np.max(np.abs(pw.metric_components(p, q, *s, *w))) <= 1e-10


class TestFactorInvolution:
    def test_definition(self):
        qu, qv = _Q(qt.ONE, qt.ONE, qt.E1, ZERO)
        npt.assert_allclose(qu, -qt.E1, atol=1e-15)
        npt.assert_allclose(qv, np.zeros(4), atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(9)
        p, q = _points(rng, 1)
        u, v = _tangents(rng, p, q)
        qqu, qqv = _Q(p, q, *_Q(p, q, u, v))
        npt.assert_allclose(qqu, u, atol=1e-15)
        npt.assert_allclose(qqv, v, atol=1e-15)

    def test_expression_through_P_and_J(self):
        # Q Z = (2 P J Z - J Z) / sqrt(3)
        rng = np.random.default_rng(10)
        p, q = _points(rng)
        z = _tangents(rng, p, q)
        ju, jv = _J(p, q, *z)
        pju, pjv = _P(p, q, ju, jv)
        qu, qv = _Q(p, q, *z)
        npt.assert_allclose(qu, (2.0 * pju - ju) / SQRT3, atol=1e-10)
        npt.assert_allclose(qv, (2.0 * pjv - jv) / SQRT3, atol=1e-10)
