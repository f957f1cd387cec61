"""Pointwise quaternionic tensors of the nearly Kaehler product of two 3-spheres.

A tangent vector at a point (p, q), with p and q unit quaternions, is a
pair Z = (U, V) with <U, p> = <V, q> = 0.  The structure tensors are

    J(U, V)  = (2 p q^-1 V - U, -2 q p^-1 U + V) / sqrt(3)
    g(Z, Z') = 4/3 (<U,U'> + <V,V'>) - 2/3 (<p^-1 U, q^-1 V'> + <p^-1 U', q^-1 V>)
    P(U, V)  = (p q^-1 V, q p^-1 U)
    Q(U, V)  = (-U, V)

with g equivalently (|Z| being the product round metric)

    g(Z, Z') = (<Z, Z'> + <J Z, J Z'>) / 2.

This module is the formula-literal route.  The constant-coefficient frame
route in `frames` must reproduce it pointwise; the two implementations are
held against each other in the verification suites.

The ``*_components`` functions take a point x = (p, q) and a tangent
pair z = (U, V) each as one array of shape (..., 2, 4), the factor on the
second-to-last axis, and broadcast over the leading axes.  Each formula is
written once for both factors: P and the cross terms of g pair each
factor with the other one, the flip ``x[..., ::-1, :]``.  `TangentVector`,
`project_tangent` and `metric_g`, the single-point object form, keep the
factors as separate fields and reach the component form through `_pair`;
they wrap it for the benchmark's tracer alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat as qt
from .errors import DomainError

SQRT3 = np.sqrt(3.0)
_J_SIGNS = np.array([[1.0], [-1.0]])  # J's sign per factor

UNIT_TOL = 1e-10
TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class AmbientPoint:
    """A point (p, q) of the product of two unit 3-spheres, or a batch of
    them when p and q have shape (..., 4)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for comp in (self.p, self.q):
            # fails closed: a NaN defect compares False
            if not qt.unit_defect(comp) <= UNIT_TOL:
                raise DomainError("ambient point components must be unit quaternions")


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector Z = (U, V) anchored at an ambient point."""

    at: AmbientPoint
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if abs(qt.dot(self.u, self.at.p)) > TANGENT_TOL or abs(
            qt.dot(self.v, self.at.q)
        ) > TANGENT_TOL:
            raise DomainError("vector is not tangent at its anchor point")


def _pair(a, b):
    """The pair (a, b) of two (..., 4) factors as one (..., 2, 4) array, the
    object API's bridge to the component form."""
    return np.stack((a, b), axis=-2)


def _swap(x):
    """The factors of pairs x (..., 2, 4) exchanged, as a C-contiguous
    array, so that the products taking it stay on unit strides."""
    return x[..., ::-1, :].copy()


def project_components(x, z):
    """Remove the radial parts of raw pairs z at the points x; broadcasts."""
    return z - qt.dot(z, x)[..., None] * x


def project_tangent(at: AmbientPoint, u, v) -> TangentVector:
    """Tangential part of a raw pair of quaternions at a point."""
    pu, pv = project_components(_pair(at.p, at.q), _pair(u, v))
    return TangentVector(at, pu, pv)


def j_components(x, z):
    """J(U, V) at x, unprojected; vectors (k, ..., 2, 4) broadcast on points (..., 2, 4)."""
    return _j_from_p(z, p_components(x, z))


def _j_from_p(z, pz):
    """J(U, V) from z = (U, V) and its unprojected P image pz: per factor
    (2 pu - u) and (-2 qu) - (-v), which is -2 qu + v to the bit."""
    return (2.0 * _J_SIGNS * pz - _J_SIGNS * z) / SQRT3


def p_components(x, z):
    """P(U, V) = (p qbar V, q pbar U) at x, unprojected; vectors (k, ..., 2, 4)
    broadcast on points (..., 2, 4)."""
    return qt.mul(qt.mul(x, qt.conj(_swap(x))), _swap(z))


def q_components(z):
    """Q(U, V) = (-U, V), the same at every point; vectors (k, ..., 2, 4) map as one."""
    return np.stack((-z[..., 0, :], z[..., 1, :]), axis=-2)


def _flat(z1, z2):
    """<Z, Z'> of the product round metric, <U, U'> + <V, V'>; broadcasts."""
    d = qt.dot(z1, z2)
    return d[..., 0] + d[..., 1]


def metric_components(x, z1, z2):
    """g(Z, Z') at x; pairs (k, ..., 2, 4) broadcast on points (..., 2, 4) or
    (k, ..., 2, 4).  The cross terms pair pbar U with qbar V' and pbar U'
    with qbar V, each factor of one vector with the other factor of the
    other."""
    xbar = qt.conj(x)
    w1, w2 = qt.mul(xbar, z1), qt.mul(xbar, z2)
    return (4.0 / 3.0) * _flat(z1, z2) - (2.0 / 3.0) * _flat(w1, w2[..., ::-1, :])


def _check_same_anchor(z1: TangentVector, z2: TangentVector):
    at1, at2 = z1.at, z2.at
    if (
        np.max(np.abs(at1.p - at2.p)) > 1e-9
        or np.max(np.abs(at1.q - at2.q)) > 1e-9
    ):
        raise DomainError("tangent vectors are anchored at different points")


def metric_g(z1: TangentVector, z2: TangentVector) -> float:
    """Hermitian metric, quaternionic form."""
    _check_same_anchor(z1, z2)
    at = z1.at
    return float(metric_components(_pair(at.p, at.q), _pair(z1.u, z1.v), _pair(z2.u, z2.v)))


def metric_hermitian_components(x, z1, z2):
    """g as (<Z,Z'> + <JZ,JZ'>) / 2, the J images projected to the tangent
    space; broadcasts.  The tests hold `metric_components` against it."""
    jz1 = project_components(x, j_components(x, z1))
    jz2 = project_components(x, j_components(x, z2))
    return 0.5 * (_flat(z1, z2) + _flat(jz1, jz2))
