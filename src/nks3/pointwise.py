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

The low-level ``*_components`` helpers broadcast over leading axes and are
used by the batched identity checks; the TangentVector API wraps them for
single points.
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


def apply_J(z: TangentVector) -> TangentVector:
    at = z.at
    u, v = j_components(at.p, at.q, z.u, z.v)
    return project_tangent(at, u, v)


def apply_P(z: TangentVector) -> TangentVector:
    at = z.at
    u, v = p_components(at.p, at.q, z.u, z.v)
    return project_tangent(at, u, v)


def apply_Q(z: TangentVector) -> TangentVector:
    u, v = q_components(z.u, z.v)
    return project_tangent(z.at, u, v)


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


def metric_g_hermitian_form(z1: TangentVector, z2: TangentVector) -> float:
    """Same metric through (<Z,Z'> + <JZ,JZ'>) / 2; used as a cross-check."""
    _check_same_anchor(z1, z2)
    jz1 = apply_J(z1)
    jz2 = apply_J(z2)
    flat = qt.dot(z1.u, z2.u) + qt.dot(z1.v, z2.v)
    jflat = qt.dot(jz1.u, jz2.u) + qt.dot(jz1.v, jz2.v)
    return float(0.5 * (flat + jflat))


def g_norm_components(p, q, u, v):
    """g-norm of tangent pairs given as component arrays; broadcasts.

    The cross term <p^-1 U, q^-1 V> of g(Z, Z) is formed once and added to
    itself, which is bitwise `metric_components(p, q, u, v, u, v)`, where
    both cross terms are that one product."""
    cross = qt.dot(qt.mul(qt.conj(p), u), qt.mul(qt.conj(q), v))
    gzz = (4.0 / 3.0) * (qt.dot(u, u) + qt.dot(v, v)) - (2.0 / 3.0) * (cross + cross)
    return np.sqrt(np.maximum(gzz, 0.0))


def g_norm(z: TangentVector) -> float:
    at = z.at
    return float(g_norm_components(at.p, at.q, z.u, z.v))


def random_point(rng: np.random.Generator) -> AmbientPoint:
    return AmbientPoint(qt.sample_unit(rng), qt.sample_unit(rng))


def random_tangent(rng: np.random.Generator, at: AmbientPoint) -> TangentVector:
    return project_tangent(at, rng.standard_normal(4), rng.standard_normal(4))
