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
(`apply_components`, `differential_components`,
`differential_fd_components`), broadcasting over leading axes, so the
isometry suite pushes whole batches through them; the translation
parameters may be batches too.  `apply`, `differential` and
`differential_fd` wrap them for single points.  The swap and the
translations are linear maps of R^8, so `differential_components` returns
their point maps of (U, V); only the twist has a differential formula of
its own.  The chart layer of the hypersurface families writes both out in
frame coefficients (`hypersurfaces.Immersion.pushforward`): the swap
exchanges its two factors' blocks, and the twist's rows are closed forms
in the chart angles, which `differential_components` checks in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quat as qt
from .errors import DomainError
from .pointwise import AmbientPoint, TangentVector, project_components

SWAP = "swap"
TWIST = "twist"
TRANSLATION = "translation"

FD_H = 1e-6  # central-difference step of `differential_fd_components`


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
        arrays; broadcasts over leading axes.  The swap and the translations
        are linear maps of R^8, so each is its own differential."""
        if self.tag != TWIST:
            return self.apply_components(u, v)
        pbar = qt.conj(p)
        qpbar = qt.mul(q, pbar)
        du = -qt.mul(qt.mul(pbar, u), pbar)
        dv = qt.mul(v, pbar) - qt.mul(qpbar, qt.mul(u, pbar))
        return project_components(pbar, qpbar, du, dv)

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
    """Translation (p, q) |-> (a p cbar, b q cbar); the parameters may be
    batches (..., 4) that broadcast against the points."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    for x in (a, b, c):
        if not qt.unit_defect(x) <= 1e-10:  # a NaN defect fails too
            raise DomainError("translation parameters must be unit quaternions")
    return IsometryMap(TRANSLATION, a, b, c)


def differential_fd_components(m: IsometryMap, p, q, u, v):
    """Differential by central differences of step FD_H of the point map,
    on component arrays; broadcasts over leading axes.

    Moves along the great-circle curves p exp(t pbar U), q exp(t qbar V),
    which stay on the spheres and have velocity (U, V) at t = 0; both
    stencil points go through the point map in one call.
    """
    return _central_difference(m, m.apply_components(p, q), _stencil_ends(p, q, u, v))


def _stencil_ends(p, q, u, v):
    """The stencil points p exp(t pbar U), q exp(t qbar V) at t = +-FD_H,
    stacked (2, ..., 4); they do not depend on the map, so the isometry
    suite forms them once for all three."""
    wu = qt.vec(qt.mul(qt.conj(p), u))
    wv = qt.vec(qt.mul(qt.conj(q), v))
    t = np.array([FD_H, -FD_H]).reshape((2,) + (1,) * wu.ndim)
    return qt.mul(p, qt.exp_pure(t * wu)), qt.mul(q, qt.exp_pure(t * wv))


def _central_difference(m: IsometryMap, image, ends):
    """The central difference of m over the `_stencil_ends` ends, projected
    to the tangent space at the image (p', q') of the stencil's centre."""
    ends_p, ends_q = m.apply_components(*ends)
    du = (ends_p[0] - ends_p[1]) / (2.0 * FD_H)
    dv = (ends_q[0] - ends_q[1]) / (2.0 * FD_H)
    return project_components(*image, du, dv)


def differential_fd(m: IsometryMap, z: TangentVector) -> TangentVector:
    """Single-point form of `differential_fd_components`."""
    at = z.at
    return TangentVector(
        m.apply(at), *differential_fd_components(m, at.p, at.q, z.u, z.v)
    )


def composition_checks(rng: np.random.Generator, samples: int) -> dict:
    """Max pointwise residuals of the composition identities.

    Checked: both involutions square to the identity, and a two-sided
    translation slides through either involution with its parameters
    permuted (a, b swapped through the factor swap; a, c reversed through
    the conjugation twist).  Each sample draws p, q, a, b, c in turn, all
    samples in one array scaled by `quat.unit_rows` (the same points as
    `sample_unit` calls in sequence); the identities are evaluated on the
    whole batch at once, T(a, b, c) on the swap and twist images stacked.
    """
    draws = qt.unit_rows(rng, rng.standard_normal((samples, 5, 4)))
    p, q, a, b, c = draws.transpose(1, 0, 2).copy()
    pt = (p, q)
    swap = factor_swap().apply_components
    twist = conjugation_twist().apply_components
    t_abc = two_sided_translation(a, b, c).apply_components
    t_bac = two_sided_translation(b, a, c).apply_components
    t_cba = two_sided_translation(c, b, a).apply_components
    swapped, twisted = swap(*pt), twist(*pt)
    moved_p, moved_q = t_abc(*(np.stack(x) for x in zip(swapped, twisted)))

    def dist(x, y) -> float:
        # NaN in either factor gives NaN
        return float(np.max(np.abs(np.concatenate([x[0] - y[0], x[1] - y[1]], axis=-1))))

    return {
        "swap-involution": dist(swap(*swapped), pt),
        "twist-involution": dist(twist(*twisted), pt),
        "translation-through-swap": dist((moved_p[0], moved_q[0]), swap(*t_bac(*pt))),
        "translation-through-twist": dist((moved_p[1], moved_q[1]), twist(*t_cba(*pt))),
    }
