"""Pointwise structure tensors: frozen values at (1, 1) and random-sample
identities for J, g, P, Q, on points x = (p, q) and tangent pairs
z = (U, V) of shape (..., 2, 4)."""

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import pointwise as pw
from nks3 import quat as qt
from nks3.errors import DomainError

SQRT3 = np.sqrt(3.0)

ORIGIN = pw.AmbientPoint(qt.ONE, qt.ONE)
ONE = np.stack([qt.ONE, qt.ONE])  # the point (1, 1)
ZERO = np.zeros(4)


def _z(u, v, at=ORIGIN):
    return pw.TangentVector(at, np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def _points(rng, n=100):
    """n points (p, q) of the product, (n, 2, 4)."""
    return qt.unit_rows(rng, rng.standard_normal((n, 2, 4)))


def _tangents(rng, x):
    """Random tangent pairs (U, V) at the points x."""
    return pw.project_components(x, rng.standard_normal(x.shape))


def _J(x, z):
    return pw.project_components(x, pw.j_components(x, z))


def _P(x, z):
    return pw.project_components(x, pw.p_components(x, z))


def _Q(x, z):
    return pw.project_components(x, pw.q_components(z))


def test_ambient_point_validates_norm():
    with pytest.raises(DomainError):
        pw.AmbientPoint(2.0 * qt.ONE, qt.ONE)


def test_ambient_point_batch_validates_every_member():
    good = np.stack([qt.ONE, qt.E1])
    pts = pw.AmbientPoint(good, good[::-1])
    assert pts.p.shape == (2, 4)
    with pytest.raises(DomainError):
        pw.AmbientPoint(np.stack([qt.ONE, 2.0 * qt.E1]), good)


@pytest.mark.parametrize("factor", range(2))
def test_ambient_point_rejects_nan(factor):
    # a NaN defect compares False with the tolerance; the test fails closed
    nan = np.array([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        pw.AmbientPoint(*((nan, qt.ONE) if factor == 0 else (qt.ONE, nan)))
    rows = np.stack([qt.ONE, qt.E1, qt.E2])
    rows_nan = rows.copy()
    rows_nan[1, 3] = np.nan
    with pytest.raises(DomainError):
        pw.AmbientPoint(*((rows_nan, rows) if factor == 0 else (rows, rows_nan)))


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
        x = _points(rng, 50)
        once = pw.project_components(x, rng.standard_normal((50, 2, 4)))
        twice = pw.project_components(x, once)
        npt.assert_allclose(once, twice, atol=1e-15)

    def test_object_form_is_the_component_form(self):
        rng = np.random.default_rng(11)
        x = _points(rng, 1)[0]
        u, v = rng.standard_normal((2, 4))
        z = pw.project_tangent(pw.AmbientPoint(*x), u, v)
        pu, pv = pw.project_components(x, np.stack([u, v]))
        assert z.u.tobytes() == pu.tobytes() and z.v.tobytes() == pv.tobytes()


class TestAlmostComplexStructure:
    def test_value_at_origin_first_slot(self):
        # direct substitution: (U, V) = (i, 0) at (1, 1)
        ju, jv = _J(ONE, np.stack([qt.E1, ZERO]))
        npt.assert_allclose(ju, -qt.E1 / SQRT3, atol=1e-15)
        npt.assert_allclose(jv, -2.0 * qt.E1 / SQRT3, atol=1e-15)

    def test_value_at_origin_second_slot(self):
        ju, jv = _J(ONE, np.stack([ZERO, qt.E1]))
        npt.assert_allclose(ju, 2.0 * qt.E1 / SQRT3, atol=1e-15)
        npt.assert_allclose(jv, qt.E1 / SQRT3, atol=1e-15)

    def test_squares_to_minus_identity(self):
        rng = np.random.default_rng(1)
        x = _points(rng)
        z = _tangents(rng, x)
        npt.assert_allclose(_J(x, _J(x, z)), -z, atol=1e-12)


class TestMetric:
    def test_values_at_origin(self):
        zi0 = _z(qt.E1, np.zeros(4))
        z0i = _z(np.zeros(4), qt.E1)
        assert pw.metric_g(zi0, zi0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert pw.metric_g(zi0, z0i) == pytest.approx(-2.0 / 3.0, abs=1e-15)
        i0, oi = np.stack([qt.E1, ZERO]), np.stack([ZERO, qt.E1])
        assert pw.metric_components(ONE, i0, i0) == pw.metric_g(zi0, zi0)
        assert pw.metric_components(ONE, i0, oi) == pw.metric_g(zi0, z0i)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        x = _points(rng)
        z1, z2 = _tangents(rng, x), _tangents(rng, x)
        npt.assert_allclose(pw.metric_components(x, z1, z2),
                            pw.metric_components(x, z2, z1), rtol=0.0, atol=1e-12)

    def test_both_forms_agree(self):
        rng = np.random.default_rng(3)
        x = _points(rng)
        z1, z2 = _tangents(rng, x), _tangents(rng, x)
        npt.assert_allclose(pw.metric_components(x, z1, z2),
                            pw.metric_hermitian_components(x, z1, z2),
                            rtol=0.0, atol=1e-10)

    def test_J_invariant(self):
        rng = np.random.default_rng(4)
        x = _points(rng)
        z1, z2 = _tangents(rng, x), _tangents(rng, x)
        npt.assert_allclose(pw.metric_components(x, _J(x, z1), _J(x, z2)),
                            pw.metric_components(x, z1, z2), rtol=0.0, atol=1e-10)

    def test_anchor_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        x = _points(rng, 2)
        z1, z2 = (pw.project_tangent(pw.AmbientPoint(*x[i]), *rng.standard_normal((2, 4)))
                  for i in range(2))
        with pytest.raises(DomainError):
            pw.metric_g(z1, z2)


class TestProductStructure:
    def test_value_at_origin(self):
        pu, pv = _P(ONE, np.stack([qt.E1, ZERO]))
        npt.assert_allclose(pu, np.zeros(4), atol=1e-15)
        npt.assert_allclose(pv, qt.E1, atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(6)
        x = _points(rng)
        z = _tangents(rng, x)
        npt.assert_allclose(_P(x, _P(x, z)), z, atol=1e-12)

    def test_g_symmetric(self):
        rng = np.random.default_rng(7)
        x = _points(rng)
        z1, z2 = _tangents(rng, x), _tangents(rng, x)
        npt.assert_allclose(pw.metric_components(x, _P(x, z1), z2),
                            pw.metric_components(x, z1, _P(x, z2)),
                            rtol=0.0, atol=1e-10)

    def test_anticommutes_with_J(self):
        rng = np.random.default_rng(8)
        x = _points(rng)
        z, w = _tangents(rng, x), _tangents(rng, x)
        s = _P(x, _J(x, z)) + _J(x, _P(x, z))
        assert np.max(np.abs(pw.metric_components(x, s, w))) <= 1e-10


class TestFactorInvolution:
    def test_definition(self):
        qu, qv = _Q(ONE, np.stack([qt.E1, ZERO]))
        npt.assert_allclose(qu, -qt.E1, atol=1e-15)
        npt.assert_allclose(qv, np.zeros(4), atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(9)
        x = _points(rng, 1)
        z = _tangents(rng, x)
        npt.assert_allclose(_Q(x, _Q(x, z)), z, atol=1e-15)

    def test_expression_through_P_and_J(self):
        # Q Z = (2 P J Z - J Z) / sqrt(3)
        rng = np.random.default_rng(10)
        x = _points(rng)
        z = _tangents(rng, x)
        jz = _J(x, z)
        npt.assert_allclose(_Q(x, z), (2.0 * _P(x, jz) - jz) / SQRT3, atol=1e-10)
