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

The point maps and differentials (`apply_components`,
`differential_components`, `differential_fd_components`) take a point
x = (p, q) and a tangent pair z = (U, V) each as one array (..., 2, 4),
the factor on the second-to-last axis, and broadcast over the leading
axes, so the isometry suite pushes whole batches through them; the
translation parameters may be batches (..., 4) too.  The swap is the flip
``x[..., ::-1, :]`` and a translation one product on each side for both
factors.  `apply`, `differential` and `differential_fd` wrap them for
single points of the object API.  The swap and the translations are
linear maps of R^8, so `differential_components` returns their point maps
of (U, V); only the twist has a differential formula of its own.  The
chart layer of the hypersurface families writes both out in frame
coefficients (`hypersurfaces.Immersion.pushforward`): the swap exchanges
its two factors' blocks, and the twist's rows are closed forms in the
chart angles, which `differential_components` checks in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quat as qt
from .errors import DomainError
from .pointwise import AmbientPoint, TangentVector, _pair, project_components

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

    def apply_components(self, x):
        """Image of points x = (p, q) given as one array (..., 2, 4)."""
        x = np.asarray(x, dtype=float)
        if self.tag == SWAP:
            return x[..., ::-1, :]
        if self.tag == TWIST:
            pbar = qt.conj(x[..., :1, :])
            return np.concatenate((pbar, qt.mul(x[..., 1:, :], pbar)), axis=-2)
        ab = np.stack(np.broadcast_arrays(self.a, self.b), axis=-2)
        return qt.mul(qt.mul(ab, x), qt.conj(self.c)[..., None, :])

    def differential_components(self, x, z):
        """Image of tangent pairs z = (U, V) (..., 2, 4) at the points x
        (..., 2, 4); broadcasts over leading axes.  The swap and the
        translations are linear maps of R^8, so each is its own
        differential."""
        if self.tag != TWIST:
            return self.apply_components(z)
        z = np.asarray(z)
        image = self.apply_components(x)
        pbar, qpbar = image[..., :1, :], image[..., 1:, :]
        zpbar = qt.mul(z, pbar)  # (U pbar, V pbar)
        du = -qt.mul(qt.mul(pbar, z[..., :1, :]), pbar)
        dv = zpbar[..., 1:, :] - qt.mul(qpbar, zpbar[..., :1, :])
        return project_components(image, np.concatenate((du, dv), axis=-2))

    def apply(self, pt: AmbientPoint) -> AmbientPoint:
        return AmbientPoint(*np.moveaxis(self.apply_components(_pair(pt.p, pt.q)), -2, 0))

    def differential(self, z: TangentVector) -> TangentVector:
        at = z.at
        return TangentVector(
            self.apply(at), *self.differential_components(_pair(at.p, at.q), _pair(z.u, z.v))
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


def differential_fd_components(m: IsometryMap, x, z):
    """Differential by central differences of step FD_H of the point map,
    on pairs (..., 2, 4); broadcasts over leading axes.

    Moves along the great-circle curves p exp(t pbar U), q exp(t qbar V),
    which stay on the spheres and have velocity (U, V) at t = 0; both
    stencil points go through the point map in one call.
    """
    return _central_difference(m, m.apply_components(x), _stencil_ends(x, z))


def _stencil_ends(x, z):
    """The stencil points p exp(t pbar U), q exp(t qbar V) at t = +-FD_H,
    stacked (2, ..., 2, 4); they do not depend on the map, so the isometry
    suite forms them once for all three."""
    w = qt.vec(qt.mul(qt.conj(x), z))
    t = np.array([FD_H, -FD_H]).reshape((2,) + (1,) * w.ndim)
    return qt.mul(x, qt.exp_pure(t * w))


def _central_difference(m: IsometryMap, image, ends):
    """The central difference of m over the `_stencil_ends` ends, projected
    to the tangent space at the image of the stencil's centre."""
    moved = m.apply_components(ends)
    return project_components(image, (moved[0] - moved[1]) / (2.0 * FD_H))


def differential_fd(m: IsometryMap, z: TangentVector) -> TangentVector:
    """Single-point form of `differential_fd_components`."""
    at = z.at
    return TangentVector(
        m.apply(at), *differential_fd_components(m, _pair(at.p, at.q), _pair(z.u, z.v))
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
    x = draws[:, :2].copy()
    a, b, c = draws[:, 2:].transpose(1, 0, 2).copy()
    swap = factor_swap().apply_components
    twist = conjugation_twist().apply_components
    t_abc = two_sided_translation(a, b, c).apply_components
    t_bac = two_sided_translation(b, a, c).apply_components
    t_cba = two_sided_translation(c, b, a).apply_components
    swapped, twisted = swap(x), twist(x)
    moved = t_abc(np.stack((swapped, twisted)))

    def dist(y1, y2) -> float:
        return float(np.max(np.abs(y1 - y2)))  # NaN in either gives NaN

    return {
        "swap-involution": dist(swap(swapped), x),
        "twist-involution": dist(twist(twisted), x),
        "translation-through-swap": dist(moved[0], swap(t_bac(x))),
        "translation-through-twist": dist(moved[1], twist(t_cba(x))),
    }
