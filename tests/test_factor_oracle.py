"""Each kernel of the quaternion route against its formula written out
factor by factor.

The route carries a point x = (p, q) and a tangent pair z = (U, V) as one
array (..., 2, 4) and writes each formula once for both factors.  Here
every kernel of `pointwise`, `isometries` and the conversions of `frames`
is held, bit for bit, to the per-factor formula of the module docstrings
written out with `quat` on separate C-contiguous (..., 4) factors.  The
inputs are random unit points and raw vectors, stacked three deep against
the points, with a share of their entries replaced by 0.0 or -0.0.
"""

import numpy as np
import pytest

from nks3 import frames, isometries as iso, pointwise as pw, quat as qt
from nks3.quat import conj, dot, mul, pure, vec

SQRT3 = np.sqrt(3.0)
N = 50


def _with_zeros(rng, a, share=0.3):
    """a with a share of its entries replaced by 0.0 or -0.0."""
    a = a.copy()
    hit = rng.random(a.shape) < share
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


def _split(a):
    """The two factors of pairs a (..., 2, 4), each C-contiguous."""
    return np.ascontiguousarray(a[..., 0, :]), np.ascontiguousarray(a[..., 1, :])


def _same(got, want):
    want = np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(params=range(3))
def case(request):
    """Points x (N, 2, 4), two stacks of raw pairs z, z2 (3, N, 2, 4), frame
    vectors w, w2 (3, N, 6) and unit translation parameters a, b, c (N, 4)."""
    rng = np.random.default_rng([44, request.param])
    x = qt.unit_rows(rng, _with_zeros(rng, rng.standard_normal((N, 2, 4))))
    z, z2 = _with_zeros(rng, rng.standard_normal((2, 3, N, 2, 4)))
    w, w2 = _with_zeros(rng, rng.standard_normal((2, 3, N, 6)))
    a, b, c = qt.unit_rows(rng, _with_zeros(rng, rng.standard_normal((3, N, 4))))
    return x, z, z2, w, w2, (a, b, c)


def test_the_inputs_carry_signed_zeros(case):
    x, z = case[:2]
    for a in (x, z):
        assert np.any((a == 0.0) & np.signbit(a)) and np.any((a == 0.0) & ~np.signbit(a))


def _project(p, q, u, v):
    return u - dot(u, p)[..., None] * p, v - dot(v, q)[..., None] * q


def _p(p, q, u, v):
    return mul(mul(p, conj(q)), v), mul(mul(q, conj(p)), u)


def _j(p, q, u, v):
    pu, qu = _p(p, q, u, v)
    return (2.0 * pu - u) / SQRT3, (-2.0 * qu + v) / SQRT3


def test_pointwise_kernels(case):
    x, z, z2 = case[:3]
    p, q = _split(x)
    u, v = _split(z)
    u2, v2 = _split(z2)
    _same(pw.project_components(x, z), np.stack(_project(p, q, u, v), axis=-2))
    _same(pw.p_components(x, z), np.stack(_p(p, q, u, v), axis=-2))
    _same(pw._j_from_p(z, pw.p_components(x, z)), np.stack(_j(p, q, u, v), axis=-2))
    _same(pw.j_components(x, z), np.stack(_j(p, q, u, v), axis=-2))
    _same(pw.q_components(z), np.stack([-u, v], axis=-2))
    cross = dot(mul(conj(p), u), mul(conj(q), v2)) + dot(mul(conj(p), u2), mul(conj(q), v))
    _same(pw.metric_components(x, z, z2),
          (4.0 / 3.0) * (dot(u, u2) + dot(v, v2)) - (2.0 / 3.0) * cross)
    ju, jv = _project(p, q, *_j(p, q, u, v))
    ju2, jv2 = _project(p, q, *_j(p, q, u2, v2))
    _same(pw.metric_hermitian_components(x, z, z2),
          0.5 * ((dot(u, u2) + dot(v, v2)) + (dot(ju, ju2) + dot(jv, jv2))))


def _frame_coords(p, q, u, v):
    return np.concatenate([vec(mul(conj(p), u)), vec(mul(conj(q), v))], axis=-1)


def _frame_to_r8(p, q, w):
    return mul(p, pure(w[..., :3])), mul(q, pure(w[..., 3:]))


def test_frame_conversions_and_flat_connection(case):
    x, z, _, w, w2 = case[:5]
    p, q = _split(x)
    u, v = _split(z)
    _same(frames.frame_coords_components(x, z), _frame_coords(p, q, u, v))
    _same(frames.frame_to_r8(x, w), np.stack(_frame_to_r8(p, q, w), axis=-2))
    _same(frames.r8_to_frame(x, z), _frame_coords(p, q, *_project(p, q, u, v)))
    wu, wv = _frame_to_r8(p, q, w)
    _same(frames.euclidean_connection(x, w, w2),
          _frame_coords(p, q, mul(wu, pure(w2[..., :3])), mul(wv, pure(w2[..., 3:]))))


def _maps(params):
    """(map, its per-factor point map, its per-factor differential)."""
    a, b, c = params

    def twist(p, q):
        pbar = conj(p)
        return pbar, mul(q, pbar)

    def twist_d(p, q, u, v):
        pbar, ubar = conj(p), conj(u)
        return _project(pbar, mul(q, pbar), ubar, mul(v, pbar) + mul(q, ubar))

    def translation(p, q):
        return mul(mul(a, p), conj(c)), mul(mul(b, q), conj(c))

    return [
        (iso.factor_swap(), lambda p, q: (q, p), lambda p, q, u, v: (v, u)),
        (iso.conjugation_twist(), twist, twist_d),
        (iso.two_sided_translation(a, b, c), translation,
         lambda p, q, u, v: translation(u, v)),
    ]


def test_isometry_maps_and_differentials(case):
    x, z = case[:2]
    p, q = _split(x)
    u, v = _split(z)
    for m, point_map, differential in _maps(case[5]):
        _same(m.apply_components(x), np.stack(point_map(p, q), axis=-2))
        _same(m.differential_components(x, z), np.stack(differential(p, q, u, v), axis=-2))


def test_central_differences(case):
    x, z = case[:2]
    p, q = _split(x)
    u, v = _split(z)
    t = np.array([iso.FD_H, -iso.FD_H]).reshape((2,) + (1,) * u.ndim)
    ends = (mul(p, qt.exp_pure(t * vec(mul(conj(p), u)))),
            mul(q, qt.exp_pure(t * vec(mul(conj(q), v)))))
    _same(iso._stencil_ends(x, z), np.stack(ends, axis=-2))
    for m, point_map, _ in _maps(case[5]):
        ends_p, ends_q = point_map(*ends)
        fd = _project(*point_map(p, q), (ends_p[0] - ends_p[1]) / (2.0 * iso.FD_H),
                      (ends_q[0] - ends_q[1]) / (2.0 * iso.FD_H))
        _same(iso.differential_fd_components(m, x, z), np.stack(fd, axis=-2))
