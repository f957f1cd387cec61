"""Isometry families: point maps, closed-form differentials versus central
differences, structure-tensor relations, composition identities."""

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


def test_trivial_translation_is_identity():
    m = iso.two_sided_translation(qt.ONE, qt.ONE, qt.ONE)
    rng = np.random.default_rng(0)
    at = pw.random_point(rng)
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
        for _ in range(50):
            at = pw.random_point(rng)
            z1 = pw.random_tangent(rng, at)
            z2 = pw.random_tangent(rng, at)
            assert pw.metric_g(m.differential(z1), m.differential(z2)) == pytest.approx(
                pw.metric_g(z1, z2), abs=1e-10
            )


def test_differential_against_central_differences():
    rng = np.random.default_rng(2)
    for m in _all_maps(rng):
        for _ in range(25):
            z = pw.random_tangent(rng, pw.random_point(rng))
            closed = m.differential(z)
            fd = iso.differential_fd(m, z)
            npt.assert_allclose(closed.u, fd.u, atol=1e-6)
            npt.assert_allclose(closed.v, fd.v, atol=1e-6)


def test_component_maps_broadcast_and_match_single_points():
    rng = np.random.default_rng(5)
    zs = [pw.random_tangent(rng, pw.random_point(rng)) for _ in range(5)]
    p, q = np.stack([z.at.p for z in zs]), np.stack([z.at.q for z in zs])
    u, v = np.stack([z.u for z in zs]), np.stack([z.v for z in zs])
    for m in _all_maps(rng):
        p2, q2 = m.apply_components(p, q)
        du, dv = m.differential_components(p, q, u, v)
        for i, z in enumerate(zs):
            d = m.differential(z)
            npt.assert_array_equal(d.at.p, p2[i])
            npt.assert_array_equal(d.at.q, q2[i])
            npt.assert_array_equal(d.u, du[i])
            npt.assert_array_equal(d.v, dv[i])


def test_batched_differential_fd_matches_single_points_bitwise():
    rng = np.random.default_rng(7)
    zs = [pw.random_tangent(rng, pw.random_point(rng)) for _ in range(6)]
    p, q = np.stack([z.at.p for z in zs]), np.stack([z.at.q for z in zs])
    u, v = np.stack([z.u for z in zs]), np.stack([z.v for z in zs])
    a, b, c = (np.stack([qt.sample_unit(rng) for _ in zs]) for _ in range(3))
    batched_translation = iso.two_sided_translation(a, b, c)
    for m in _all_maps(rng) + [batched_translation]:
        du, dv = iso.differential_fd_components(m, p, q, u, v)
        for i, z in enumerate(zs):
            single = m
            if m is batched_translation:
                single = iso.two_sided_translation(a[i], b[i], c[i])
            fd = iso.differential_fd(single, z)
            npt.assert_array_equal(fd.u, du[i])
            npt.assert_array_equal(fd.v, dv[i])


def test_differential_fd_converges_at_second_order(monkeypatch):
    # the central difference along a great circle is off by its truncation
    # error, which quarters when FD_H halves; at these steps that error
    # (about 1e-5) is far above the round-off of about 1e-16 / FD_H
    rng = np.random.default_rng(8)
    p, q, u, v, a, b, c = qt.unit_rows(rng, rng.standard_normal((7, 20, 4)))
    u, v = pw.project_components(p, q, u, v)
    for m in (iso.factor_swap(), iso.conjugation_twist(), iso.two_sided_translation(a, b, c)):
        exact = np.concatenate(m.differential_components(p, q, u, v), axis=-1)

        def error(h):
            monkeypatch.setattr(iso, "FD_H", h)
            fd = np.concatenate(iso.differential_fd_components(m, p, q, u, v), axis=-1)
            return np.max(np.abs(fd - exact), axis=-1)

        coarse, fine = error(1e-2), error(5e-3)
        assert np.all(fine > 1e-7), m.tag
        ratio = fine / coarse
        assert np.all((0.2 <= ratio) & (ratio <= 0.3)), (m.tag, ratio)


def _max_component_diff(z1, z2):
    return max(float(np.max(np.abs(z1.u - z2.u))), float(np.max(np.abs(z1.v - z2.v))))


def test_swap_differential_relations():
    # d(swap) anticommutes with J and commutes with P
    m = iso.factor_swap()
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = pw.random_tangent(rng, pw.random_point(rng))
        a = m.differential(pw.apply_J(z))
        b = pw.apply_J(m.differential(z))
        assert max(np.max(np.abs(a.u + b.u)), np.max(np.abs(a.v + b.v))) <= 1e-10
        a = m.differential(pw.apply_P(z))
        b = pw.apply_P(m.differential(z))
        assert _max_component_diff(a, b) <= 1e-10


def test_twist_differential_relations():
    # d(twist) anticommutes with J; through P it picks up -P/2 + sqrt(3)/2 JP
    m = iso.conjugation_twist()
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = pw.random_tangent(rng, pw.random_point(rng))
        a = m.differential(pw.apply_J(z))
        b = pw.apply_J(m.differential(z))
        assert max(np.max(np.abs(a.u + b.u)), np.max(np.abs(a.v + b.v))) <= 1e-10
        a = m.differential(pw.apply_P(z))
        dz = m.differential(z)
        pdz = pw.apply_P(dz)
        jpdz = pw.apply_J(pdz)
        npt.assert_allclose(a.u, -0.5 * pdz.u + (SQRT3 / 2.0) * jpdz.u, atol=1e-10)
        npt.assert_allclose(a.v, -0.5 * pdz.v + (SQRT3 / 2.0) * jpdz.v, atol=1e-10)


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
