"""Quaternion arithmetic on length-4 numpy arrays.

A quaternion w + x i + y j + z k is stored as ``array([w, x, y, z])``.
Every function broadcasts over leading axes, so batches are handled as
arrays of shape (..., 4).  Imaginary quaternions (w == 0) double as
3-vectors; `pure` and `vec` convert between the two layouts.

`mul` writes the Hamilton product out per component for operands of
every rank, single quaternions included, so a product is the same bits
whatever batch it is part of, and it obeys ``np.errstate``.
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

    Output component i is the sum of q1_j * (±q2_k) over j = 0, 1, 2, 3,
    added in that order, and every NaN is ``np.nan``.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    out = np.empty(np.broadcast_shapes(q1.shape, q2.shape))
    out[..., 0] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    out[..., 1] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 2] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 3] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
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
    return np.max(abs(norm(q) - 1.0))


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
    # each row's dot product on its own, as np.linalg.norm of a single
    # row forms it; a row sum rounds differently for some rows
    n = np.sqrt(np.vecdot(v, v))
    bad = n <= MIN_DRAW_NORM
    while bad.any():
        redrawn = rng.standard_normal((np.count_nonzero(bad), 4))
        v[bad] = redrawn
        n[bad] = np.sqrt(np.vecdot(redrawn, redrawn))
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
