"""Isometries of the nearly Kaehler product of two 3-spheres.

Three families, with their differentials in closed form:

    factor swap          (p, q) |-> (q, p)           d(U, V) = (V, U)
    conjugation twist    (p, q) |-> (pbar, q pbar)   d(U, V) = (-pbar U pbar, V pbar - q pbar U pbar)
    two-sided translation (p, q) |-> (a p cbar, b q cbar) for unit a, b, c
                                                     d(U, V) = (a U cbar, b V cbar)

The twist differential uses conj(U) = -pbar U pbar, valid for U tangent at
p.  Since that is a hand derivation, `differential_fd` recomputes any
differential by central differences of the point map and the test suite
requires agreement.

The point maps and differentials act on component arrays
(`apply_components`, `differential_components`), broadcasting over leading
axes, so the chart layer can push whole stencils through them; `apply` and
`differential` wrap them for single points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quat as qt
from .errors import DomainError
from .pointwise import AmbientPoint, TangentVector, project_components, project_tangent

SWAP = "swap"
TWIST = "twist"
TRANSLATION = "translation"


@dataclass(frozen=True)
class IsometryMap:
    tag: str
    a: np.ndarray = field(default_factory=lambda: qt.ONE.copy())
    b: np.ndarray = field(default_factory=lambda: qt.ONE.copy())
    c: np.ndarray = field(default_factory=lambda: qt.ONE.copy())

    def apply_components(self, p, q):
        """Image (p', q') of points given as component arrays (..., 4)."""
        if self.tag == SWAP:
            return q, p
        if self.tag == TWIST:
            pbar = qt.conj(p)
            return pbar, qt.mul(q, pbar)
        cbar = qt.conj(self.c)
        return qt.mul(qt.mul(self.a, p), cbar), qt.mul(qt.mul(self.b, q), cbar)

    def differential_components(self, p, q, u, v):
        """Image (U', V') of tangent pairs (U, V) at (p, q), as component
        arrays; broadcasts over leading axes."""
        if self.tag == SWAP:
            return v, u
        if self.tag == TWIST:
            pbar = qt.conj(p)
            qpbar = qt.mul(q, pbar)
            du = -qt.mul(qt.mul(pbar, u), pbar)
            dv = qt.mul(v, pbar) - qt.mul(qpbar, qt.mul(u, pbar))
            return project_components(pbar, qpbar, du, dv)
        cbar = qt.conj(self.c)
        return qt.mul(qt.mul(self.a, u), cbar), qt.mul(qt.mul(self.b, v), cbar)

    def apply(self, pt: AmbientPoint) -> AmbientPoint:
        return AmbientPoint(*self.apply_components(pt.p, pt.q))

    def differential(self, z: TangentVector) -> TangentVector:
        at = z.at
        return TangentVector(
            self.apply(at), *self.differential_components(at.p, at.q, z.u, z.v)
        )


def factor_swap() -> IsometryMap:
    return IsometryMap(SWAP)


def conjugation_twist() -> IsometryMap:
    return IsometryMap(TWIST)


def two_sided_translation(a, b, c) -> IsometryMap:
    for x in (a, b, c):
        if abs(qt.norm(x) - 1.0) > 1e-10:
            raise DomainError("translation parameters must be unit quaternions")
    return IsometryMap(
        TRANSLATION,
        np.asarray(a, dtype=float),
        np.asarray(b, dtype=float),
        np.asarray(c, dtype=float),
    )


def differential_fd(m: IsometryMap, z: TangentVector, h: float = 1e-6) -> TangentVector:
    """Differential by central differences of the point map.

    Moves along the great-circle curves p exp(t pbar U), q exp(t qbar V),
    which stay on the spheres and have velocity (U, V) at t = 0.
    """
    at = z.at
    wu = qt.vec(qt.mul(qt.conj(at.p), z.u))
    wv = qt.vec(qt.mul(qt.conj(at.q), z.v))

    def curve(t: float) -> AmbientPoint:
        return AmbientPoint(
            qt.mul(at.p, qt.exp_pure(t * wu)), qt.mul(at.q, qt.exp_pure(t * wv))
        )

    plus = m.apply(curve(h))
    minus = m.apply(curve(-h))
    du = (plus.p - minus.p) / (2.0 * h)
    dv = (plus.q - minus.q) / (2.0 * h)
    return project_tangent(m.apply(at), du, dv)


def composition_checks(rng: np.random.Generator, samples: int = 100) -> dict:
    """Max pointwise residuals of the composition identities.

    Checked: both involutions square to the identity, and a two-sided
    translation slides through either involution with its parameters
    permuted (a, b swapped through the factor swap; a, c reversed through
    the conjugation twist).
    """
    swap = factor_swap()
    twist = conjugation_twist()
    worst = {
        "swap-involution": 0.0,
        "twist-involution": 0.0,
        "translation-through-swap": 0.0,
        "translation-through-twist": 0.0,
    }
    for _ in range(samples):
        p = qt.sample_unit(rng)
        q = qt.sample_unit(rng)
        pt = AmbientPoint(p, q)
        a, b, c = (qt.sample_unit(rng) for _ in range(3))

        def dist(x: AmbientPoint, y: AmbientPoint) -> float:
            return float(max(np.max(np.abs(x.p - y.p)), np.max(np.abs(x.q - y.q))))

        worst["swap-involution"] = max(
            worst["swap-involution"], dist(swap.apply(swap.apply(pt)), pt)
        )
        worst["twist-involution"] = max(
            worst["twist-involution"], dist(twist.apply(twist.apply(pt)), pt)
        )
        t_abc = two_sided_translation(a, b, c)
        t_bac = two_sided_translation(b, a, c)
        t_cba = two_sided_translation(c, b, a)
        worst["translation-through-swap"] = max(
            worst["translation-through-swap"],
            dist(t_abc.apply(swap.apply(pt)), swap.apply(t_bac.apply(pt))),
        )
        worst["translation-through-twist"] = max(
            worst["translation-through-twist"],
            dist(t_abc.apply(twist.apply(pt)), twist.apply(t_cba.apply(pt))),
        )
    return worst
