"""The chart as a whole: area and coarea by quadrature of the chart's
Jacobian.

Every hypersurface of the six families contains the full E directions (or
their image under the factor swap or the conjugation twist), so its area
density in the nearly Kaehler metric is 8/(3 sqrt 3) times the round one:

    area(m1-m3(r))   = (8/(3 sqrt 3)) 2 pi^2 4 pi r^2
    area(m4-m6(k, l)) = (8/(3 sqrt 3)) 2 pi^2 4 pi^2 k l

The chart box covers each hypersurface once: u0 in [0, 2 pi),
u1 in (-pi/4, pi/4), u2 in [0, pi), u3 the latitude (-pi/2, pi/2) of
m1-m3 or the torus angle [0, 2 pi) of m4-m6, and u4 in [0, 2 pi).  The
area is the integral of sqrt det(T g T^T) over it, with T the chart
pushforwards of one `pushforward` call on Gauss-Legendre nodes, 2 x 12 x
2 x 12 x 2 of them (1152 chart points).

Why those counts suffice: the density is cos 2u1 times r^2 cos u3 (or a
constant on the torus), up to the constant factor, so it does not depend
on u0, u2 or u4, and any rule whose weights sum to the interval's length
is exact there.  On u1 and u3 it is one arch of a cosine, cos v over
(-pi/2, pi/2) after a change of variable, and the Gauss-Legendre error
bound on n nodes, pi^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3), divided by the
arch's integral 2, is 2.7e-10 at n = 6 and 1.2e-26 at n = 12.
Measured: at 2 x 12 x 2 x 12 x 2 nodes every family's area matches its closed form to at most 7.8e-16 relative; at
half the nodes, 1 x 6 x 1 x 6 x 1, to 5.2e-10 on m1-m3 (both arches) and
2.6e-10 on m4-m6 (one).

Integrating the area along the unit-speed parallel families m3(sin s),
s in (0, pi), and m6(cos t, sin t), t in (0, pi/2), on 12 nodes gives the
volume (8/(3 sqrt 3)) (2 pi^2)^2 of the product of two 3-spheres
(measured: 0 and 5.6e-16 relative; 6.0e-7 and 2.6e-10 on 6 nodes), each
from one chart call with one parameter value per row.
"""

import math

import numpy as np
import pytest

from nks3 import frames
from nks3 import hypersurfaces as hs

DENSITY = 8.0 / (3.0 * math.sqrt(3.0))  # NK area density over the round one
SPHERE = 2.0 * math.pi ** 2  # volume of the round unit 3-sphere
NODES = (2, 12, 2, 12, 2)
REL_TOL = 1e-14


def _box(family):
    third = ((0.0, 2.0 * math.pi) if family in hs.FIVE_CURVATURE_FAMILIES
             else (-0.5 * math.pi, 0.5 * math.pi))
    return [(0.0, 2.0 * math.pi), (-0.25 * math.pi, 0.25 * math.pi), (0.0, math.pi),
            third, (0.0, 2.0 * math.pi)]


def _legendre(lo, hi, n):
    """Gauss-Legendre nodes and weights of n points on (lo, hi)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _grid(family):
    """The chart points (N, 5) and weights (N,) of the product rule."""
    axes = [_legendre(lo, hi, n) for (lo, hi), n in zip(_box(family), NODES)]
    u = np.stack(np.meshgrid(*(x for x, _ in axes), indexing="ij"), axis=-1)
    w = np.prod(np.meshgrid(*(w for _, w in axes), indexing="ij"), axis=0)
    return u.reshape(-1, 5), w.reshape(-1)


def _pushforwards(M):
    """The chart pushforwards T (..., N, 5, 6) on the grid, from one call;
    an immersion with m parameter rows charts the grid once a row."""
    u, w = _grid(M.family)
    if M.rows is not None:
        u = np.broadcast_to(u, (M.rows,) + u.shape)
    return M.pushforward(u)[1], w


def _area(T, w):
    g = frames.get_tables().g
    return np.sqrt(np.linalg.det(T @ g @ T.swapaxes(-1, -2))) @ w


def _closed_form(family, r=None, k=None, l=None):
    if family in hs.THREE_CURVATURE_FAMILIES:
        return DENSITY * SPHERE * 4.0 * math.pi * r * r
    return DENSITY * SPHERE * 4.0 * math.pi ** 2 * k * l


@pytest.mark.parametrize("family,kw", [
    (family, kw) for family in hs.THREE_CURVATURE_FAMILIES
    for kw in (dict(r=0.6), dict(r=0.3))] + [
    (family, kw) for family in hs.FIVE_CURVATURE_FAMILIES
    for kw in (dict(k=0.6, l=0.8), dict(k=0.28, l=0.96))])
def test_chart_area_matches_the_closed_form(family, kw):
    area = _area(*_pushforwards(hs.make_example(family, **kw)))
    assert abs(area / _closed_form(family, **kw) - 1.0) <= REL_TOL


def test_a_scaled_chart_row_moves_the_area():
    # the negative control: one chart direction of m3 scaled by 1 + 1e-9
    # scales every density by the same factor, and the area test fails
    M = hs.make_example("m3", r=0.6)
    T, w = _pushforwards(M)
    scaled = T.copy()
    scaled[..., 2, :] *= 1.0 + 1e-9
    moved = _area(scaled, w) / _area(T, w) - 1.0
    assert abs(moved - 1e-9) <= 1e-12
    assert abs(_area(scaled, w) / _closed_form("m3", r=0.6) - 1.0) > 1e3 * REL_TOL


@pytest.mark.parametrize("family", ["m3", "m6"])
def test_coarea_of_the_parallel_family_is_the_volume(family):
    # the parameter moves at unit speed along the normal: r = sin s on m3,
    # (k, l) = (cos t, sin t) on m6; 12 Gauss-Legendre nodes in s or t
    if family == "m3":
        s, ws = _legendre(0.0, math.pi, 12)
        M = hs.make_example(family, r=np.sin(s))
    else:
        s, ws = _legendre(0.0, 0.5 * math.pi, 12)
        M = hs.make_example(family, k=np.cos(s), l=np.sin(s))
    volume = _area(*_pushforwards(M)) @ ws
    assert abs(volume / (DENSITY * SPHERE ** 2) - 1.0) <= REL_TOL
