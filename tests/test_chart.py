"""The chart layer against the quaternion products it writes out.

`hypersurfaces._sphere_factor` and `_torus` are closed forms of chained
`quat.mul` products, and `Immersion.pushforward` multiplies out only the
blocks of the pushforward that the factor partials reach.  Each is held
here to the products it replaces, written out in full: the factors by
`float.hex`, and the pushforward against the chart velocities padded with
zero rows to (5, 4) and pushed through `IsometryMap.differential_components`
and `frames.frame_coords_components`.

Bit for bit, signed zeros included, holds wherever neither factor has a
negative real part, which covers every sampled chart point; the zeros the
products leave out are exact, so at any chart point every nonzero entry is
the products' bit for bit and a zero entry may only carry the other sign.
"""

import itertools
import math

import numpy as np
import pytest

from nks3 import frames, hypersurfaces as hs, isometries as iso, quat as qt

FAMILY_PARAMS = {"m1": dict(r=0.6), "m2": dict(r=0.6), "m3": dict(r=1.0),
                 "m4": dict(k=0.6, l=0.8), "m5": dict(k=0.6, l=0.8),
                 "m6": dict(k=0.8, l=0.6)}
ISOMETRY = {"m2": iso.factor_swap(), "m3": iso.conjugation_twist(),
            "m5": iso.factor_swap(), "m6": iso.conjugation_twist()}


def _hex(a) -> list:
    return [float.hex(float(v)) for v in np.ravel(a)]


def _sphere_products(u):
    """x = e^{u0 i} e^{u1 j} e^{u2 k} and its partials as chained products."""
    g1, g2, g3 = np.moveaxis(qt.exp_pure(u[..., :3, None] * np.eye(3)), -2, 0)
    g12 = qt.mul(g1, g2)
    x = qt.mul(g12, g3)
    d0 = qt.mul(qt.E1, x)
    d1 = qt.mul(qt.mul(qt.mul(g1, qt.E2), g2), g3)
    d2 = qt.mul(qt.mul(g12, qt.E3), g3)
    return x, np.stack([d0, d1, d2], axis=-2)


def _torus_products(phi1, phi2, k, l):
    """k e^{i phi1} + l e^{i phi2} j and its partials as products."""
    k, l = hs._trailing(k, 1), hs._trailing(l, 1)
    angles = np.stack([phi1, phi2], axis=-1)[..., None] * qt.vec(qt.E1)
    e1, e2 = np.moveaxis(qt.exp_pure(angles), -2, 0)
    e2j = qt.mul(e2, qt.E2)
    dq = np.stack([k * qt.mul(qt.E1, e1), l * qt.mul(qt.E1, e2j)], axis=-2)
    return k * e1 + l * e2j, dq


def _five_row_pushforward(M, u):
    """The pushforward of the chart's factors with zero-padded (5, 4)
    velocity arrays U and V, through the isometry's differential."""
    u = np.asarray(u, dtype=float)
    x, y, dx, dy = M._chart(u, *M._row_params(u))
    U = np.zeros(u.shape[:-1] + (5, 4))
    V = np.zeros_like(U)
    U[..., :3, :] = dx
    V[..., 3:, :] = dy
    p, q = x, y
    m = ISOMETRY.get(M.family)
    if m is not None:
        U, V = m.differential_components(p[..., None, :], q[..., None, :], U, V)
        p, q = m.apply_components(p, q)
    return p, q, frames.frame_coords_components(p[..., None, :], q[..., None, :], U, V)


def _with_zeros(rng, u, share=0.4):
    """u with a share of its coordinates replaced by 0.0 or -0.0."""
    u = u.copy()
    hit = rng.random(u.shape) < share
    u[hit] = np.where(rng.random(u.shape) < 0.5, 0.0, -0.0)[hit]
    return u


def _sampled(rng, shape):
    """Chart points of the sampling box of `random_chart_points`."""
    return hs.random_chart_points(rng, math.prod(shape)).reshape(shape + (5,))


def _assert_same_values(a, b):
    """Equal entry for entry (a zero of either sign equal to a zero), so
    every nonzero entry bit for bit."""
    assert a.shape == b.shape
    assert np.array_equal(a, b)


class TestClosedFormFactors:
    def test_sphere_factor_equals_products_at_zero_coordinates(self):
        # every combination of signed zeros, tiny and ordinary coordinates,
        # with all three cosines positive
        vals = [0.0, -0.0, 0.3, -0.3, 1.5, -1.5, 1e-200, -1e-200]
        u = np.array([v + (0.0, 0.0) for v in itertools.product(vals, repeat=3)])
        for got, want in zip(hs._sphere_factor(u), _sphere_products(u)):
            assert _hex(got) == _hex(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_sphere_factor_equals_products_on_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        for u in (_sampled(rng, (30, 11)),
                  _with_zeros(rng, rng.uniform(-1.5, 1.5, (200, 5))),
                  _with_zeros(rng, _sampled(rng, (4, 18)))):
            for got, want in zip(hs._sphere_factor(u), _sphere_products(u)):
                assert _hex(got) == _hex(want)
        # a single chart point
        u = hs.random_chart_point(rng)
        for got, want in zip(hs._sphere_factor(u), _sphere_products(u)):
            assert _hex(got) == _hex(want)

    def test_sphere_factor_beyond_a_quarter_turn_equals_products_in_value(self):
        # with a negative cosine a zero component may carry the other sign
        rng = np.random.default_rng(4)
        u = _with_zeros(rng, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (2000, 5)))
        for got, want in zip(hs._sphere_factor(u), _sphere_products(u)):
            _assert_same_values(got, want)

    @pytest.mark.parametrize("k,l", [(0.6, 0.8), (0.999, math.sqrt(1.0 - 0.999 ** 2))])
    def test_torus_equals_products(self, k, l):
        rng = np.random.default_rng(5)
        vals = [0.0, -0.0, 0.5, -0.5, 2.0, -2.0, 3.5, -3.5, 1e-200, -1e-200]
        grid = np.array(list(itertools.product(vals, repeat=2)))
        wide = _with_zeros(rng, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (500, 2)))
        for phi in (grid, wide, grid[7]):
            got = hs._torus(phi[..., 0], phi[..., 1], k, l)
            want = _torus_products(phi[..., 0], phi[..., 1], k, l)
            for a, b in zip(got, want):
                assert _hex(a) == _hex(b)
        # a parameter value per row
        ks = rng.uniform(0.1, 0.9, len(wide))
        got = hs._torus(wide[:, 0], wide[:, 1], ks, np.sqrt(1.0 - ks * ks))
        want = _torus_products(wide[:, 0], wide[:, 1], ks, np.sqrt(1.0 - ks * ks))
        for a, b in zip(got, want):
            assert _hex(a) == _hex(b)


def _per_row(family, rows, rng):
    if family in hs.THREE_CURVATURE_FAMILIES:
        return dict(r=rng.uniform(0.2, 1.0, rows))
    k = rng.uniform(0.2, 0.9, rows)
    return dict(k=k, l=np.sqrt(1.0 - k * k))


class TestZeroBlockPushforward:
    @pytest.mark.parametrize("family", hs.FAMILIES)
    @pytest.mark.parametrize("shape", [(4, 11), (4, 18), (30, 11)])
    def test_equals_five_row_route_bitwise(self, family, shape):
        rng = np.random.default_rng([hs.FAMILIES.index(family), *shape])
        u = _sampled(rng, shape)
        u_zeros = _with_zeros(rng, u)
        for M in (hs.make_example(family, **FAMILY_PARAMS[family]),
                  hs.make_example(family, **_per_row(family, shape[0], rng))):
            for points in (u, u_zeros, u[:, 0]):
                for got, want in zip(M.pushforward(points), _five_row_pushforward(M, points)):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_single_points_and_the_origin_equal_five_row_route_bitwise(self, family):
        M = hs.make_example(family, **FAMILY_PARAMS[family])
        for u in (np.zeros(5), np.full(5, -0.0), np.array([-0.0, 0.0, 0.3, -0.0, -0.5])):
            for got, want in zip(M.pushforward(u), _five_row_pushforward(M, u)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_equals_five_row_route_in_value_over_the_whole_chart(self, family):
        # beyond the sampling box the left-out zeros may give -0.0 where
        # the pushforward has +0.0; every nonzero entry stays bit for bit
        rng = np.random.default_rng(6)
        u = _with_zeros(rng, rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (3000, 5)))
        M = hs.make_example(family, **FAMILY_PARAMS[family])
        for got, want in zip(M.pushforward(u), _five_row_pushforward(M, u)):
            _assert_same_values(got, want)

    @pytest.mark.parametrize("family,products", [
        ("m1", 2), ("m2", 2), ("m3", 8), ("m4", 2), ("m5", 2), ("m6", 8)])
    def test_quaternion_products_per_pushforward(self, monkeypatch, family, products):
        # the two factors' frame coefficients, and for the twist its six
        # products of nonzero factors; the factors themselves take none
        calls = []
        mul = qt.mul

        def counting_mul(q1, q2):
            calls.append(1)
            return mul(q1, q2)

        monkeypatch.setattr(qt, "mul", counting_mul)
        M = hs.make_example(family, **FAMILY_PARAMS[family])
        M.pushforward(np.zeros((30, 11, 5)))
        assert len(calls) == products


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
