"""Isometry families: point maps, closed-form differentials versus central
differences, structure-tensor relations, composition identities."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import isometries as iso, pointwise as pw, quat as qt
from nks3.errors import DomainError

SQRT3 = np.sqrt(3.0)


def test_swap_point_map():
    m = iso.factor_swap()
    out = m.apply(pw.AmbientPoint(qt.E1, qt.E2))
    npt.assert_array_equal(out.p, qt.E2)
    npt.assert_array_equal(out.q, qt.E1)


def test_twist_point_map():
    m = iso.conjugation_twist()
    fixed = m.apply(pw.AmbientPoint(qt.ONE, qt.ONE))
    npt.assert_array_equal(fixed.p, qt.ONE)
    npt.assert_array_equal(fixed.q, qt.ONE)
    # (i, j) -> (ibar, j ibar) = (-i, k)
    out = m.apply(pw.AmbientPoint(qt.E1, qt.E2))
    npt.assert_array_equal(out.p, -qt.E1)
    npt.assert_array_equal(out.q, qt.E3)


def _tangents(rng, n):
    """n points x = (p, q) (n, 2, 4) and a tangent pair z = (U, V) (n, 2, 4) at each."""
    x = qt.unit_rows(rng, rng.standard_normal((n, 2, 4)))
    return x, pw.project_components(x, rng.standard_normal((n, 2, 4)))


def _J(x, z):
    return pw.project_components(x, pw.j_components(x, z))


def _P(x, z):
    return pw.project_components(x, pw.p_components(x, z))


def test_trivial_translation_is_identity():
    m = iso.two_sided_translation(qt.ONE, qt.ONE, qt.ONE)
    rng = np.random.default_rng(0)
    at = pw.AmbientPoint(qt.sample_unit(rng), qt.sample_unit(rng))
    out = m.apply(at)
    npt.assert_allclose(out.p, at.p, atol=1e-15)
    npt.assert_allclose(out.q, at.q, atol=1e-15)


def test_translation_requires_unit_parameters():
    with pytest.raises(DomainError):
        iso.two_sided_translation(2.0 * qt.ONE, qt.ONE, qt.ONE)


def test_translation_batch_rejects_one_non_unit_row():
    rng = np.random.default_rng(6)
    a = np.stack([qt.sample_unit(rng) for _ in range(5)])
    m = iso.two_sided_translation(a, a, a)
    assert m.a.shape == (5, 4)
    a[3] *= 1.0 + 1e-8
    for params in ((a, qt.ONE, qt.ONE), (qt.ONE, a, qt.ONE), (qt.ONE, qt.ONE, a)):
        with pytest.raises(DomainError):
            iso.two_sided_translation(*params)


@pytest.mark.parametrize("slot", range(3))
def test_translation_rejects_a_nan_parameter(slot):
    # a NaN defect compares False with the tolerance; the test fails closed
    params = [qt.ONE, qt.ONE, qt.ONE]
    params[slot] = np.array([math.nan, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        iso.two_sided_translation(*params)


@pytest.mark.parametrize("slot", range(3))
def test_translation_batch_rejects_one_nan_row(slot):
    rng = np.random.default_rng(6)
    params = list(qt.unit_rows(rng, rng.standard_normal((3, 5, 4))))
    iso.two_sided_translation(*params)
    params[slot][2, 1] = math.nan
    with pytest.raises(DomainError):
        iso.two_sided_translation(*params)


def _all_maps(rng):
    return [
        iso.factor_swap(),
        iso.conjugation_twist(),
        iso.two_sided_translation(
            qt.sample_unit(rng), qt.sample_unit(rng), qt.sample_unit(rng)
        ),
    ]


def test_metric_pullback():
    rng = np.random.default_rng(1)
    for m in _all_maps(rng):
        x, z1 = _tangents(rng, 50)
        z2 = pw.project_components(x, rng.standard_normal((50, 2, 4)))
        pulled = pw.metric_components(m.apply_components(x), m.differential_components(x, z1),
                                      m.differential_components(x, z2))
        npt.assert_allclose(pulled, pw.metric_components(x, z1, z2), rtol=0.0, atol=1e-10)


def test_differential_against_central_differences():
    rng = np.random.default_rng(2)
    for m in _all_maps(rng):
        x, z = _tangents(rng, 25)
        closed = m.differential_components(x, z)
        fd = iso.differential_fd_components(m, x, z)
        npt.assert_allclose(closed, fd, atol=1e-6)


def test_component_maps_broadcast_and_match_single_points():
    rng = np.random.default_rng(5)
    x, z = _tangents(rng, 5)
    for m in _all_maps(rng):
        image = m.apply_components(x)
        dz = m.differential_components(x, z)
        for i in range(5):
            d = m.differential(pw.TangentVector(pw.AmbientPoint(*x[i]), *z[i]))
            npt.assert_array_equal(d.at.p, image[i, 0])
            npt.assert_array_equal(d.at.q, image[i, 1])
            npt.assert_array_equal(d.u, dz[i, 0])
            npt.assert_array_equal(d.v, dz[i, 1])


def test_batched_differential_fd_matches_single_points_bitwise():
    rng = np.random.default_rng(7)
    x, z = _tangents(rng, 6)
    a, b, c = qt.unit_rows(rng, rng.standard_normal((3, 6, 4)))
    batched_translation = iso.two_sided_translation(a, b, c)
    for m in _all_maps(rng) + [batched_translation]:
        dz = iso.differential_fd_components(m, x, z)
        for i in range(6):
            single = m
            if m is batched_translation:
                single = iso.two_sided_translation(a[i], b[i], c[i])
            fd = iso.differential_fd(single, pw.TangentVector(pw.AmbientPoint(*x[i]), *z[i]))
            npt.assert_array_equal(fd.u, dz[i, 0])
            npt.assert_array_equal(fd.v, dz[i, 1])


def test_differential_fd_converges_at_second_order(monkeypatch):
    # the central difference along a great circle is off by its truncation
    # error, which quarters when FD_H halves; at these steps that error
    # (about 1e-5) is far above the round-off of about 1e-16 / FD_H
    rng = np.random.default_rng(8)
    x, z, abc = np.split(qt.unit_rows(rng, rng.standard_normal((20, 7, 4))), [2, 4], axis=1)
    z = pw.project_components(x, z)
    a, b, c = abc.transpose(1, 0, 2)
    for m in (iso.factor_swap(), iso.conjugation_twist(), iso.two_sided_translation(a, b, c)):
        exact = m.differential_components(x, z)

        def error(h):
            monkeypatch.setattr(iso, "FD_H", h)
            fd = iso.differential_fd_components(m, x, z)
            return np.max(np.abs(fd - exact), axis=(-2, -1))

        coarse, fine = error(1e-2), error(5e-3)
        assert np.all(fine > 1e-7), m.tag
        ratio = fine / coarse
        assert np.all((0.2 <= ratio) & (ratio <= 0.3)), (m.tag, ratio)


def test_swap_differential_relations():
    # d(swap) anticommutes with J and commutes with P
    m = iso.factor_swap()
    rng = np.random.default_rng(3)
    x, z = _tangents(rng, 100)
    image = m.apply_components(x)
    dz = m.differential_components(x, z)
    a = m.differential_components(x, _J(x, z))
    b = _J(image, dz)
    assert np.max(np.abs(np.add(a, b))) <= 1e-10
    a = m.differential_components(x, _P(x, z))
    b = _P(image, dz)
    assert np.max(np.abs(np.subtract(a, b))) <= 1e-10


def test_twist_differential_relations():
    # d(twist) anticommutes with J; through P it picks up -P/2 + sqrt(3)/2 JP
    m = iso.conjugation_twist()
    rng = np.random.default_rng(4)
    x, z = _tangents(rng, 100)
    image = m.apply_components(x)
    dz = m.differential_components(x, z)
    a = m.differential_components(x, _J(x, z))
    b = _J(image, dz)
    assert np.max(np.abs(np.add(a, b))) <= 1e-10
    a = m.differential_components(x, _P(x, z))
    pdz = _P(image, dz)
    jpdz = _J(image, pdz)
    npt.assert_allclose(a, -0.5 * pdz + (SQRT3 / 2.0) * jpdz, atol=1e-10)


def test_composition_identities():
    rng = np.random.default_rng(5)
    worst = iso.composition_checks(rng, samples=100)
    for name, residual in worst.items():
        assert residual <= 1e-12, name


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_composition_draws_equal_sequential_draws_bitwise(monkeypatch, seed):
    # p, q, a, b, c of all samples come from one array; they are the points
    # of five single draws per sample, in turn
    seen = []
    translation = iso.two_sided_translation

    def recording_translation(a, b, c):
        seen.append((a, b, c))
        return translation(a, b, c)

    monkeypatch.setattr(iso, "two_sided_translation", recording_translation)
    rng = np.random.default_rng(seed)
    iso.composition_checks(rng, samples=40)
    ref_rng = np.random.default_rng(seed)
    expected = np.array([[qt.sample_unit(ref_rng) for _ in range(5)]
                         for _ in range(40)])
    a, b, c = seen[0]
    for got, slot in ((a, 2), (b, 3), (c, 4)):
        assert got.tobytes() == np.ascontiguousarray(expected[:, slot]).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_composition_checks_allocate_before_drawing():
    # a sample count too large to hold fails at once, before any draw
    with pytest.raises(MemoryError):
        iso.composition_checks(np.random.default_rng(0), samples=100000000000000)
