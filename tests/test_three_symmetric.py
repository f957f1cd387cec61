"""The ambient tables from the 3-symmetric space SU(2)^3 / diag SU(2).

A route to g, J, P, G and R that does not pass through the left-invariant
frame's bracket table or the Koszul reduction of `frames.build_tables`.  At
o = (1, 1) the frame vector x = (x_E, x_F) is X = (x_E + X3, x_F + X3, X3)
in m = {X1 + X2 + X3 = 0}, X3 = -(x_E + x_F)/3, with the bracket
[X, Y]_i = 2 X_i x Y_i of su(2)^3 = (R^3)^3.  B is the sum of the three dot
products, ( )_k the mean of the three components and ( )_m the rest, and
sigma the cyclic shift (X1, X2, X3) -> (X2, X3, X1).  Then g = 2B,
J = (2 sigma + 1)/sqrt(3), P exchanges X1 and X2,
G(X, Y) = ([X, JY]_m - J[X, Y]_m)/2, and R is the curvature of a naturally
reductive space (Besse, Einstein Manifolds, ch. 7).

The geodesic through o with frame velocity x is gamma(t) =
(e^{t X1} e^{-t X3}, e^{t X2} e^{-t X3}), with frame velocity
v(t) = (Ad(e^{t X3}) X1 - X3, Ad(e^{t X3}) X2 - X3) (ROADMAP item 20).  In
the frame the geodesic equation reads v' + Gamma(v, v) = 0, so Gamma(x, x)
= -v'(0) = -([X3, X1], [X3, X2]) = (2/3)(-x_E x x_F, x_E x x_F).
"""

import numpy as np
import pytest

from nks3 import frames
from nks3 import hypersurfaces as hs

T = frames.get_tables()
TOL = 1e-12  # about a hundred ulps of the largest entries, 7 (G) and 20 (R)
FAMILY_PARAMS = {"m1": dict(r=0.6), "m2": dict(r=0.6), "m3": dict(r=1.0),
                 "m4": dict(k=0.6, l=0.8), "m5": dict(k=0.6, l=0.8), "m6": dict(k=0.6, l=0.8)}


def to_m(x):
    e, f = x[..., :3], x[..., 3:]
    x3 = -(e + f) / 3.0
    return np.stack([e + x3, f + x3, x3], axis=-2)


def from_m(X):
    return np.concatenate([X[..., 0, :] - X[..., 2, :], X[..., 1, :] - X[..., 2, :]], axis=-1)


def k_part(X):
    return np.broadcast_to(X.mean(axis=-2, keepdims=True), X.shape)


def m_part(X):
    return X - k_part(X)


def route(scale=1.0, shift=1):
    """g, J, P, G and R of the 3-symmetric route, with the bracket scaled
    and sigma replaced by its power `shift` for the negative controls."""

    def br(X, Y):
        return 2.0 * scale * np.cross(X, Y)

    def J(X):
        return (2.0 * np.roll(X, -shift, axis=-2) + X) / np.sqrt(3.0)

    def g(X, Y):
        return 2.0 * np.einsum("...ij,...ij->...", X, Y)

    def G(X, Y):
        return 0.5 * (m_part(br(X, J(Y))) - J(m_part(br(X, Y))))

    def R(X, Y, Z):
        xy = br(X, Y)
        return (-br(k_part(xy), Z) - 0.5 * m_part(br(m_part(xy), Z))
                - 0.25 * m_part(br(m_part(br(Y, Z)), X))
                - 0.25 * m_part(br(m_part(br(Z, X)), Y)))

    return g, J, G, R


def gaps(scale=1.0, shift=1):
    """The largest gap of each route to `frames` over 200 random sets."""
    x, y, z = np.random.default_rng(22).standard_normal((3, 200, 6))
    X, Y, Z = map(to_m, (x, y, z))
    g, J, G, R = route(scale, shift)
    rx = from_m(R(X, Y, Z))
    return {
        "g": np.max(np.abs(g(X, Y) - frames.g_inner(T, x, y))),
        "J": np.max(np.abs(from_m(J(X)) - x @ T.J.T)),
        "P": np.max(np.abs(from_m(X[..., [1, 0, 2], :]) - x @ T.P.T)),
        "G": np.max(np.abs(from_m(G(X, Y)) - frames.tensor_G(T, x, y))),
        "R table": np.max(np.abs(rx - frames.curvature(T, x, y, z))),
        "R closed form": np.max(np.abs(rx - frames.curvature_closed_form(T, x, y, z))),
    }


def test_m_is_the_frame():
    x = np.random.default_rng(23).standard_normal((50, 6))
    X = to_m(x)
    assert np.max(np.abs(X.sum(axis=-2))) <= 1e-14 * np.max(np.abs(x))
    assert np.max(np.abs(from_m(X) - x)) <= 1e-14 * np.max(np.abs(x))


def test_every_table_matches_the_three_symmetric_route():
    assert {name: gap <= TOL for name, gap in gaps().items()} == dict.fromkeys(
        ("g", "J", "P", "G", "R table", "R closed form"), True)


@pytest.mark.parametrize("scale,shift,failing", [
    # a bracket off by 1e-9 moves G and R by about 1e-8; sigma^2 gives -J,
    # and so moves G, while R reads no J
    (1.0 + 1e-9, 1, {"G", "R table", "R closed form"}),
    (1.0, 2, {"J", "G"}),
])
def test_negative_controls_fail(scale, shift, failing):
    assert {name for name, gap in gaps(scale, shift).items() if gap > 100 * TOL} == failing


def geodesic_acceleration(x, sign=1.0):
    """-v'(0) of the geodesic with frame velocity x, -([X3, X1], [X3, X2]);
    sign -1 flips it for the negative control."""
    X = to_m(x)
    return -sign * 2.0 * np.cross(X[..., 2:, :], X[..., :2, :]).reshape(x.shape)


def test_connection_is_the_geodesic_acceleration():
    x = np.random.default_rng(20).standard_normal((200, 6))
    e, f = x[:, :3], x[:, 3:]
    closed = (2.0 / 3.0) * np.concatenate([-np.cross(e, f), np.cross(e, f)], axis=-1)
    gamma = frames.nabla(T, x, x)  # entries up to 4.2
    assert np.max(np.abs(geodesic_acceleration(x) - closed)) <= TOL
    assert np.max(np.abs(gamma - geodesic_acceleration(x))) <= TOL
    # the opposite sign misses by 8.3
    assert np.max(np.abs(gamma - geodesic_acceleration(x, -1.0))) > 1.0


@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_the_structure_vector_is_geodesic(family):
    # Gamma(U, U) = 0 because U_E and U_F are parallel, so the Reeb orbits
    # of the six families are the one-parameter-subgroup orbits
    M = hs.make_example(family, **FAMILY_PARAMS[family])
    U = hs.analyze_points(M, hs.random_chart_points(np.random.default_rng(20), 40)).structure_vector
    assert np.max(np.abs(frames.nabla(T, U, U))) <= 1e-14
    assert np.max(np.abs(np.cross(U[:, :3], U[:, 3:]))) <= 1e-14


def test_a_random_unit_vector_is_not_geodesic():
    x = np.random.default_rng(21).standard_normal((200, 6))
    x /= frames.g_norm(T, x)[:, None]
    # the medians read 0.34 and 0.25
    assert np.median(frames.g_norm(T, frames.nabla(T, x, x))) > 0.1
    assert np.median(np.linalg.norm(np.cross(x[:, :3], x[:, 3:]), axis=-1)) > 0.1
