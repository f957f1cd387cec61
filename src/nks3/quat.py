"""Quaternion arithmetic on length-4 numpy arrays.

A quaternion w + x i + y j + z k is stored as ``array([w, x, y, z])``.
Every function broadcasts over leading axes, so batches are handled as
arrays of shape (..., 4).  Imaginary quaternions (w == 0) double as
3-vectors; `pure` and `vec` convert between the two layouts.

`mul` has two routes, chosen by the rank of its operands.  Single
quaternions and flat ``(n, 4)`` batches (both operands of ndim <= 2) take
the component-column formula, which unpacks a single quaternion to Python
floats.  Stacked batches (either operand of ndim >= 3, as in the chart
layer) form all sixteen products in one array through a signed
permutation of q2.  Both routes form the same products and add them in
the same order, so they agree bitwise.  Python float arithmetic raises no
numpy floating-point warnings, so ``np.errstate`` does not reach a product
of two single quaternions.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 0.0, 1.0])
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
# a Gaussian draw of at most this norm is redrawn before it is scaled to
# a unit quaternion
MIN_DRAW_NORM = 1e-6
# Row j lists, for each output component, the component of q2 that
# multiplies component j of q1 in the Hamilton product, and its sign.
_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SIGNS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [-1.0, 1.0, -1.0, 1.0],
    [-1.0, 1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0, 1.0],
])


def pure(v) -> np.ndarray:
    """Embed a 3-vector as an imaginary quaternion."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def vec(q) -> np.ndarray:
    """Vector (imaginary) part of a quaternion."""
    return np.asarray(q, dtype=float)[..., 1:]


def mul(q1, q2) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes; the result is
    C-contiguous.

    On both routes output component i is the sum of q1_j * (±q2_k) over
    j = 0, 1, 2, 3, added in that order.  x * (-y) equals -(x * y) and
    a + (-b) equals a - b bitwise, so the routes agree bitwise, signed
    zeros included, and every NaN is ``np.nan``.  A single quaternion
    (ndim 1) on the component-column route unpacks to Python floats, which
    give the same IEEE results as numpy but raise no numpy floating-point
    warnings: a product of two single quaternions ignores ``np.errstate``.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.ndim >= 3 or q2.ndim >= 3:
        # stacked batches: all sixteen products in one (..., 4, 4) array
        t = np.multiply(q1[..., :, None], q2[..., _PERM] * _SIGNS, order="C")
        out = t[..., 0, :] + t[..., 1, :] + t[..., 2, :] + t[..., 3, :]
    else:
        # at most one batch axis: the component columns, Python floats for
        # a single quaternion
        w1, x1, y1, z1 = q1.tolist() if q1.ndim == 1 else q1.T
        w2, x2, y2, z2 = q2.tolist() if q2.ndim == 1 else q2.T
        out = np.ascontiguousarray(np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]).T)
    # the order of additions does not fix the sign of a NaN: where a
    # positive NaN meets the negative NaN of inf * 0, numpy's vector and
    # scalar loops keep different ones, chosen by the array's address
    out[np.isnan(out)] = np.nan
    return out


def conj(q) -> np.ndarray:
    return np.asarray(q, dtype=float) * _CONJ_SIGNS


def norm(q) -> np.ndarray:
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def unit_defect(q):
    """Largest deviation | |q| - 1 | over a quaternion or a batch of them."""
    err = abs(norm(q) - 1.0)
    # a single quaternion skips the reduction: the scalar paths make
    # thousands of points per suite
    return err.max() if err.ndim else err


def dot(q1, q2) -> np.ndarray:
    """Euclidean inner product of R^4."""
    return np.add.reduce(np.asarray(q1, dtype=float) * np.asarray(q2, dtype=float), axis=-1)


def exp_pure(v) -> np.ndarray:
    """Unit quaternion exp(x i + y j + z k) for a 3-vector argument."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    out = np.empty(v.shape[:-1] + (4,))
    out[..., 0] = np.cos(theta)
    # sinc keeps the theta -> 0 limit exact
    out[..., 1:] = v * np.sinc(theta / np.pi)[..., None]
    return out


def _row_norm(v) -> np.ndarray:
    # each row's dot product on its own, as np.linalg.norm of a single
    # row forms it; a row sum rounds differently for some rows
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def unit_rows(rng: np.random.Generator, v) -> np.ndarray:
    """Scale the rows of Gaussian draws v (..., 4), ndim >= 2, in place to
    uniform points of the unit 3-sphere; returns v.

    Each row is divided by its norm, which equals `np.linalg.norm` of the
    row bitwise, so drawing k quaternions per sample as one
    ``rng.standard_normal((samples, k, 4))`` and scaling the rows gives
    the same points as ``samples * k`` calls of `sample_unit`.  A row of
    norm at most `MIN_DRAW_NORM` is redrawn from ``rng`` after the whole
    batch (in row order, until none is left); that is the one case where
    the stream differs from the calls in sequence, which redraw at once.
    """
    n = _row_norm(v)
    bad = n <= MIN_DRAW_NORM
    while bad.any():
        v[bad] = rng.standard_normal((np.count_nonzero(bad), 4))
        n[bad] = _row_norm(v[bad])
        bad = n <= MIN_DRAW_NORM
    v /= n[..., None]
    return v


def sample_unit(rng: np.random.Generator) -> np.ndarray:
    """Uniform point of the unit 3-sphere (normalized 4D Gaussian)."""
    while True:
        v = rng.standard_normal(4)
        n = np.linalg.norm(v)
        if n > MIN_DRAW_NORM:
            return v / n
