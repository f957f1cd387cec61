"""The chart layer against the quaternion products it writes out.

`Immersion.pushforward` writes the frame rows of the chart out in the
cosines and sines of the chart angles: xbar d_a x of the base 3-sphere,
ybar d_b y of the second factor, and for the twist (-rho_a, -rho_a) and
(0, R(x) ybar d_b y).  Each family is held here to the route it replaces,
written out in full: the factors and their R^4 partials (`_sphere_products`
and `_torus_products` as chained `quat.mul` products, `_round_sphere_r4`),
padded with zero rows to (5, 2, 4) velocity pairs and pushed through
`IsometryMap.differential_components` and
`frames.frame_coords_components`.  The composed families' points are the
isometries' point maps of their base families' points, bit for bit.

The two routes round differently, so they agree to a tolerance, `TOL`;
two negative controls show that it would catch a closed form with two
chart angles exchanged or with the twist's sign flipped.  What stays bit
for bit is each row's independence of its batch.  `_level_set`'s frame
rows are signed permutations of the points, equal to `frames.frame_to_r8`
of the unit frame entry for entry.
"""

import math

import numpy as np
import pytest

from nks3 import frames, hypersurfaces as hs, isometries as iso, quat as qt, verify

FAMILY_PARAMS = {"m1": dict(r=0.6), "m2": dict(r=0.6), "m3": dict(r=1.0),
                 "m4": dict(k=0.6, l=0.8), "m5": dict(k=0.6, l=0.8),
                 "m6": dict(k=0.8, l=0.6)}
ISOMETRY = {"m2": iso.factor_swap(), "m3": iso.conjugation_twist(),
            "m5": iso.factor_swap(), "m6": iso.conjugation_twist()}
TWIST_FAMILIES = ("m3", "m6")

# Over every input of `TestClosedFormPushforward` the largest difference
# from the product route, in x or T, was 2.2e-15 (the twist families,
# |u| up to 2 pi), so 1e-14 holds it with a margin of 4.5; the negative
# controls missed by 1.8 or more.
TOL = 1e-14
MISS = 1e-3


def _sphere_products(u):
    """x = e^{u0 i} e^{u1 j} e^{u2 k} and its partials as chained products."""
    g1, g2, g3 = np.moveaxis(qt.exp_pure(u[..., :3, None] * np.eye(3)), -2, 0)
    g12 = qt.mul(g1, g2)
    x = qt.mul(g12, g3)
    d0 = qt.mul(qt.E1, x)
    d1 = qt.mul(qt.mul(qt.mul(g1, qt.E2), g2), g3)
    d2 = qt.mul(qt.mul(g12, qt.E3), g3)
    return x, np.stack([d0, d1, d2], axis=-2)


def _round_sphere_r4(psi, chi, r):
    """sqrt(1 - r^2) + r y, y on the unit sphere of imaginaries at latitude
    psi and longitude chi, and its two partials in R^4."""
    c = np.sqrt(1.0 - r * r)
    cp, sp, cc, sc = np.cos(psi), np.sin(psi), np.cos(chi), np.sin(chi)
    zero = np.zeros_like(psi)
    y = np.stack([zero, cp * cc, cp * sc, sp], axis=-1)
    dpsi = np.stack([zero, -sp * cc, -sp * sc, cp], axis=-1)
    dchi = np.stack([zero, -cp * sc, cp * cc, zero], axis=-1)
    return (hs._trailing(c, 1) * qt.ONE + hs._trailing(r, 1) * y,
            hs._trailing(r, 2) * np.stack([dpsi, dchi], axis=-2))


def _torus_products(phi1, phi2, k, l):
    """k e^{i phi1} + l e^{i phi2} j and its partials as products."""
    k, l = hs._trailing(k, 1), hs._trailing(l, 1)
    angles = np.stack([phi1, phi2], axis=-1)[..., None] * qt.vec(qt.E1)
    e1, e2 = np.moveaxis(qt.exp_pure(angles), -2, 0)
    e2j = qt.mul(e2, qt.E2)
    dq = np.stack([k * qt.mul(qt.E1, e1), l * qt.mul(qt.E1, e2j)], axis=-2)
    return k * e1 + l * e2j, dq


def _product_route(M, u):
    """The pushforward of the chart's factors with zero-padded (5, 2, 4)
    velocity pairs (U, V), through the isometry's differential."""
    u = np.asarray(u, dtype=float)
    second = (_round_sphere_r4 if M.family in hs.THREE_CURVATURE_FAMILIES
              else _torus_products)
    x, dx = _sphere_products(u)
    y, dy = second(u[..., 3], u[..., 4], *M._row_params(u))
    z = np.zeros(u.shape[:-1] + (5, 2, 4))
    z[..., :3, 0, :] = dx
    z[..., 3:, 1, :] = dy
    pt = np.stack([x, y], axis=-2)
    m = ISOMETRY.get(M.family)
    if m is not None:
        z = m.differential_components(pt[..., None, :, :], z)
        pt = m.apply_components(pt)
    return pt, frames.frame_coords_components(pt[..., None, :, :], z)


def _gap(M, u, want=None) -> float:
    """The largest difference of M's pushforward at u from the product
    route at u (or from want), over x and T."""
    want = _product_route(M, u) if want is None else want
    got = M.pushforward(u)
    assert all(a.shape == b.shape for a, b in zip(got, want))
    return max(float(np.max(np.abs(a - b))) for a, b in zip(got, want))


def _with_zeros(rng, u, share=0.4):
    """u with a share of its coordinates replaced by 0.0 or -0.0."""
    u = u.copy()
    hit = rng.random(u.shape) < share
    u[hit] = np.where(rng.random(u.shape) < 0.5, 0.0, -0.0)[hit]
    return u


def _sampled(rng, shape):
    """Chart points of the sampling box of `random_chart_points`."""
    return hs.random_chart_points(rng, math.prod(shape)).reshape(shape + (5,))


def _per_row(family, rows, rng):
    if family in hs.THREE_CURVATURE_FAMILIES:
        return dict(r=rng.uniform(0.2, 1.0, rows))
    k = rng.uniform(0.2, 0.9, rows)
    return dict(k=k, l=np.sqrt(1.0 - k * k))


class TestClosedFormPushforward:
    @pytest.mark.parametrize("family", hs.FAMILIES)
    @pytest.mark.parametrize("shape", [(4, 11), (4, 18), (30, 11)])
    def test_equals_product_route(self, family, shape):
        rng = np.random.default_rng([hs.FAMILIES.index(family), *shape])
        u = _sampled(rng, shape)
        u_zeros = _with_zeros(rng, u)
        for M in (hs.make_example(family, **FAMILY_PARAMS[family]),
                  hs.make_example(family, **_per_row(family, shape[0], rng))):
            for points in (u, u_zeros, u[:, 0]):
                assert _gap(M, points) <= TOL

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_single_points_and_the_origin_equal_product_route(self, family):
        M = hs.make_example(family, **FAMILY_PARAMS[family])
        for u in (np.zeros(5), np.full(5, -0.0), np.array([-0.0, 0.0, 0.3, -0.0, -0.5])):
            assert _gap(M, u) <= TOL

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_equals_product_route_over_the_whole_chart(self, family):
        # |u| up to 2 pi, past every chart lock and quarter turn, with
        # signed zeros; the parameters per row too
        rng = np.random.default_rng(6)
        u = _with_zeros(rng, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (3000, 5)))
        assert _gap(hs.make_example(family, **FAMILY_PARAMS[family]), u) <= TOL
        rows = u.reshape(30, 100, 5)
        assert _gap(hs.make_example(family, **_per_row(family, 30, rng)), rows) <= TOL

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_batch_rows_equal_single_rows_bitwise(self, family):
        rng = np.random.default_rng([7, hs.FAMILIES.index(family)])
        u = _with_zeros(rng, _sampled(rng, (4, 18)))
        for M in (hs.make_example(family, **FAMILY_PARAMS[family]),
                  hs.make_example(family, **_per_row(family, 4, rng))):
            batch = M.pushforward(u)
            for i in range(4):
                for a, b in zip(batch, M[i:i + 1].pushforward(u[i:i + 1])):
                    assert a[i:i + 1].tobytes() == b.tobytes()
                for j in (0, 17):
                    for a, b in zip(batch, M[i].pushforward(u[i, j])):
                        assert a[i, j].tobytes() == b.tobytes()

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_negative_control_exchanged_angles(self, family):
        # a chart with u1 and u2 exchanged misses the product route
        rng = np.random.default_rng(8)
        u = _sampled(rng, (200,))
        M = hs.make_example(family, **FAMILY_PARAMS[family])
        assert _gap(M, u[:, (0, 2, 1, 3, 4)], _product_route(M, u)) > MISS

    @pytest.mark.parametrize("family", TWIST_FAMILIES)
    def test_negative_control_twist_sign_flipped(self, family, monkeypatch):
        # the twist's rows with rho_a in place of -rho_a miss it
        rng = np.random.default_rng(9)
        u = _sampled(rng, (200,))
        M = hs.make_example(family, **FAMILY_PARAMS[family])
        want = _product_route(M, u)
        rows = hs._twist_rows
        monkeypatch.setattr(hs, "_twist_rows",
                            lambda out, C, S: np.negative(rows(out, C, S), out=out))
        assert _gap(M, u, want) > MISS


class TestPointMaps:
    @pytest.mark.parametrize("family", sorted(ISOMETRY))
    def test_equal_the_isometry_point_maps_bitwise(self, family):
        # a composed family's chart points are its isometry's point map of
        # the base family's chart points at the same u, bit for bit, over
        # 500 points with |u| up to 2 pi and signed zeros; the parameters as
        # floats and per row
        base = "m1" if family in hs.THREE_CURVATURE_FAMILIES else "m4"
        rng = np.random.default_rng([11, hs.FAMILIES.index(family)])
        u = _with_zeros(rng, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (20, 25, 5)))
        for kw in (FAMILY_PARAMS[base], _per_row(base, 20, rng)):
            points = hs.make_example(base, **kw).pushforward(u)[0]
            want = ISOMETRY[family].apply_components(points)
            got = hs.make_example(family, **kw).pushforward(u)[0]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestFrameRows:
    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_equal_frame_to_r8_entry_for_entry(self, family):
        # the rows _level_set differentiates along, against the quaternion
        # products p e_c and q e_c of `frames.frame_to_r8`
        rng = np.random.default_rng([10, hs.FAMILIES.index(family)])
        points = [hs.make_example(family, **FAMILY_PARAMS[family])
                  .pushforward(_with_zeros(rng, _sampled(rng, (3, 20))))[0],
                  verify._as_pairs(qt.unit_rows(rng, rng.standard_normal((2, 7, 4))))]
        for x in points:
            rows = hs._frame_rows(x)
            assert rows.shape == x.shape[:-2] + (6, 8)
            flat = frames.frame_to_r8(x[..., None, :, :], np.eye(6))
            assert np.array_equal(rows, flat.reshape(rows.shape))


@pytest.mark.parametrize("family,params", verify.DEFAULT_BATTERY)
def test_quaternion_products_per_suite(monkeypatch, family, params):
    # the one product left is the twist's point y xbar, once a chart call:
    # the analysis and the stencil call
    calls = []
    mul = qt.mul

    def counting_mul(q1, q2):
        calls.append(1)
        return mul(q1, q2)

    monkeypatch.setattr(qt, "mul", counting_mul)
    report = verify.run_hypersurface_suite(family, params, 0, 2)
    assert all(c.passed for c in report.checks)
    assert len(calls) == (2 if family in TWIST_FAMILIES else 0)


def _uniform_point(rng):
    """One chart point drawn by `Generator.uniform` calls."""
    u = rng.uniform(-0.6, 0.6, size=5)
    u[3] = rng.uniform(-1.2, 1.2)
    u[4] = rng.uniform(-math.pi, math.pi)
    return u


class TestRandomChartPoints:
    @pytest.mark.parametrize("seed", range(8))
    def test_equal_points_drawn_one_at_a_time(self, seed):
        for n in (0, 1, 7, 40):
            one, batch = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = np.array([_uniform_point(one) for _ in range(n)]).reshape(n, 5)
            got = hs.random_chart_points(batch, n)
            assert got.shape == (n, 5)
            assert got.tobytes() == expected.tobytes()
            # the generator's next draw is the same too
            assert float.hex(one.random()) == float.hex(batch.random())

    def test_one_point_is_the_first_row(self):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            assert hs.random_chart_point(rng).tobytes() == _uniform_point(ref).tobytes()
