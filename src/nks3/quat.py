"""Quaternion arithmetic on length-4 numpy arrays.

A quaternion w + x i + y j + z k is stored as ``array([w, x, y, z])``.
Every function broadcasts over leading axes, so batches are handled as
arrays of shape (..., 4).  Imaginary quaternions (w == 0) double as
3-vectors; `pure` and `vec` convert between the two layouts.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 0.0, 1.0])
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


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
    C-contiguous."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.ndim != q2.ndim and min(q1.ndim, q2.ndim) > 1:
        # unpacking through .T reverses the leading axes, which broadcast
        # correctly only when both operands have as many of them
        nd = max(q1.ndim, q2.ndim)
        q1 = q1.reshape((1,) * (nd - q1.ndim) + q1.shape)
        q2 = q2.reshape((1,) * (nd - q2.ndim) + q2.shape)
    w1, x1, y1, z1 = q1.T
    w2, x2, y2, z2 = q2.T
    return np.ascontiguousarray(
        np.array(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        ).T
    )


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
    return np.sum(np.asarray(q1, dtype=float) * np.asarray(q2, dtype=float), axis=-1)


def exp_pure(v) -> np.ndarray:
    """Unit quaternion exp(x i + y j + z k) for a 3-vector argument."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    out = np.empty(v.shape[:-1] + (4,))
    out[..., 0] = np.cos(theta)
    # sinc keeps the theta -> 0 limit exact
    out[..., 1:] = v * np.sinc(theta / np.pi)[..., None]
    return out


def sample_unit(rng: np.random.Generator) -> np.ndarray:
    """Uniform point of the unit 3-sphere (normalized 4D Gaussian)."""
    while True:
        v = rng.standard_normal(4)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n
