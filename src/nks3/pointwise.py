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

The ``*_components`` functions take points (p, q) and tangent pairs as
component arrays and broadcast over leading axes.  `TangentVector`,
`project_tangent` and `metric_g`, the single-point object form, wrap
them for the benchmark's tracer alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat as qt
from .errors import DomainError

SQRT3 = np.sqrt(3.0)

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
            if qt.unit_defect(comp) > UNIT_TOL:
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


def project_components(p, q, u, v):
    """Remove the radial parts of a raw pair, broadcasting over batches."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        u - qt.dot(u, p)[..., None] * p,
        v - qt.dot(v, q)[..., None] * q,
    )


def project_tangent(at: AmbientPoint, u, v) -> TangentVector:
    """Tangential part of a raw pair of quaternions at a point."""
    pu, pv = project_components(at.p, at.q, u, v)
    return TangentVector(at, pu, pv)


def j_components(p, q, u, v):
    pu = qt.mul(qt.mul(p, qt.conj(q)), v)
    qu = qt.mul(qt.mul(q, qt.conj(p)), u)
    return (2.0 * pu - u) / SQRT3, (-2.0 * qu + v) / SQRT3


def p_components(p, q, u, v):
    return qt.mul(qt.mul(p, qt.conj(q)), v), qt.mul(qt.mul(q, qt.conj(p)), u)


def q_components(u, v):
    return -np.asarray(u, dtype=float), np.asarray(v, dtype=float)


def metric_components(p, q, u1, v1, u2, v2):
    cross12 = qt.dot(qt.mul(qt.conj(p), u1), qt.mul(qt.conj(q), v2))
    cross21 = qt.dot(qt.mul(qt.conj(p), u2), qt.mul(qt.conj(q), v1))
    return (4.0 / 3.0) * (qt.dot(u1, u2) + qt.dot(v1, v2)) - (2.0 / 3.0) * (
        cross12 + cross21
    )


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
    return float(metric_components(at.p, at.q, z1.u, z1.v, z2.u, z2.v))


def metric_hermitian_components(p, q, u1, v1, u2, v2):
    """g as (<Z,Z'> + <JZ,JZ'>) / 2, the J images projected to the tangent
    space; broadcasts.  The tests hold `metric_components` against it."""
    ju1, jv1 = project_components(p, q, *j_components(p, q, u1, v1))
    ju2, jv2 = project_components(p, q, *j_components(p, q, u2, v2))
    flat = qt.dot(u1, u2) + qt.dot(v1, v2)
    jflat = qt.dot(ju1, ju2) + qt.dot(jv1, jv2)
    return 0.5 * (flat + jflat)


def g_norm_components(p, q, u, v):
    """g-norm of tangent pairs given as component arrays; broadcasts.

    The cross term <p^-1 U, q^-1 V> of g(Z, Z) is formed once and added to
    itself, which is bitwise `metric_components(p, q, u, v, u, v)`, where
    both cross terms are that one product."""
    cross = qt.dot(qt.mul(qt.conj(p), u), qt.mul(qt.conj(q), v))
    gzz = (4.0 / 3.0) * (qt.dot(u, u) + qt.dot(v, v)) - (2.0 / 3.0) * (cross + cross)
    return np.sqrt(np.maximum(gzz, 0.0))
