"""Hypersurface geometry of the example families in the nearly Kaehler product.

Six families of parametrized immersions of a 5-dimensional chart:

    m1(r)    (x, sqrt(1 - r^2) + r y)        x on the 3-sphere, y imaginary unit
    m2(r)    factor swap of m1(r)
    m3(r)    conjugation twist of m1(r)
    m4(k,l)  (x, k e^{i phi1} + l e^{i phi2} j)   with k^2 + l^2 = 1
    m5(k,l)  factor swap of m4(k,l)
    m6(k,l)  conjugation twist of m4(k,l)

Chart layout: u[0:3] move x through the one-parameter subgroups
exp(u0 i) exp(u1 j) exp(u2 k); u[3:5] are latitude/longitude on the
2-sphere factor of m1 (kept away from the poles), or the two torus angles
of m4.  All pushforwards are closed form, and the chart layer takes whole
arrays of chart points (`Immersion.pushforward`), so each
finite-difference stencil below is evaluated in one chart call.  The
family parameters are floats, or arrays of one value per chart-point row,
so one chart call can serve a grid of parameter values.

Both factors and their partials are written out from the cosines and sines
of one `quat.exp_pure` call each (`_sphere_factor`, `_torus`), and the
pushforward multiplies out only the blocks that a factor's partials reach:
the 3-sphere block of u[0:3] and the second factor's block of u[3:5], which
the factor swap exchanges and the conjugation twist
(`isometries.twist_blocks`) mixes without its products of zero factors.
Every product left out is an exact zero, so each nonzero entry equals the
chained `quat.mul` products of the zero-padded velocities bit for bit, and
the signs of zero entries agree too wherever neither factor has a
negative real part, as at every sampled chart point.

`analyze_points` produces the pointwise apparatus of a hypersurface at a
batch of chart points, as one `HypersurfacePointData` whose fields carry
the batch axis (`analyze_point` returns the batch of one row): the metric
normal xi, the structure vector U = -J xi, the induced
almost contact tensors, and the shape operator via the Weingarten
relation A X = -(D_X xi)^T.  The ambient covariant derivative of xi is
assembled from the product-round-metric derivative (central differences
of the normal field along chart lines, projected to the tangent space)
corrected by the exact frame tensors:

    D_X xi = nablaE_X xi - (J G(X, P xi) + J G(xi, P X)) / 2,

the correction being `frames.connection_gap`, the same function the
structure suite checks against the flat derivative.  The analysis and the
transport, Codazzi and Gauss residuals take every such derivative through
one step, `_covariant_fd`: the central difference of a field's flat R^8
form along a chart segment, in frame coefficients, minus the same gap of
the direction and the field's value, minus the normal part.  The analysis
takes it along the five chart lines through each point, from one chart
call on the point and its ten segment ends.  `stencil_residuals` takes
the transport, Gauss and Codazzi residuals together, from one chart call
and one normal computation on the transport's two segment ends and a
nested stencil of two such steps, `_nested_fd`.  On the nested stencil
two fields are differenced at once: the chart-constant extension of Z
(Gauss) and the unit normal (Codazzi), whose inner step is -A Y by the
Weingarten relation, so no shape operator is built away from the point
itself.  The Gauss field also gives the sectional value g(R_ind(X, Y) Z, X)
that the leaf geometry reads along its 3-sphere pair (`leaf_directions`).

Everything downstream (spectra, residuals of the Gauss, Codazzi and
structure-vector transport identities) works in frame coordinates, where
the structure tensors are constant matrices.  Every result has one layout,
the batch: each residual returns one value per row of the point data, and
each evaluates its finite-difference stencils for all rows in one chart
call.  Its products keep each row's vectors one-row matrices
(`frames._vm`, `frames._mv`, and `_rowwise` for
`frames.curvature_closed_form`, the one frame function that multiplies its
arguments by constant matrices; the bilinear frame tensors and the metric
pairing are per-row products already), so each row of a batch equals the
residual of that row alone, a batch of one, bitwise.  The spectral report
and the normal-action class take a batch the same way, the report with one
`eigh` call for all rows; the theta-r relation and the leaf geometry read
the rows of a report and of `stencil_residuals` instead of computing their
own.  Normals are held and sign-aligned in frame coefficients; the flat
R^8 form appears only inside the finite-difference step `_covariant_fd`.

Every chart call tests the rank of its pushforwards (`_chart_data`) by one
batched Cholesky factorization of the Gram matrices T g T^T shifted by
-RANK_TOL I, which succeeds exactly when each smallest eigenvalue exceeds
RANK_TOL, up to rounding near RANK_TOL.  Only when it fails do the
eigenvalues of the Gram matrices name the first chart point at or below
RANK_TOL.

Orientation convention: the normal sign is chosen so that trace(A) >= 0,
with a lexicographic tie-break on the frame coefficients of xi when the
trace vanishes; it is the one orientation `analyze_points` gives.
Spectra of a hypersurface and of its image under an ambient isometry then
agree as multisets up to one global sign, and that is how spectra are
compared throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import quat as qt
from .errors import DegenerateImmersionError, DomainError, PreconditionError
from .frames import (
    _dot,
    _mv,
    _vm,
    connection_gap,
    curvature_closed_form,
    factor_coords,
    frame_to_r8,
    g_inner,
    g_norm,
    get_tables,
    r8_to_frame,
    tensor_G,
)
from .isometries import SWAP, TWIST, twist_blocks

SQRT3 = math.sqrt(3.0)

RANK_TOL = 1e-6
TRACE_TIE_TOL = 1e-9
DIM_TOL = 1e-6
CLASS_TOL = 1e-6
HOPF_TOL = 1e-6
ORTHO_TOL = 1e-8

NORMAL_H = 1e-5  # central-difference step for the normal and structure vector
NESTED_H = 1e-4  # step of both levels of the Gauss, Codazzi and leaf-curvature stencil

# eigenvalues within max(CLUSTER_REL_TOL * max |eigenvalue|, CLUSTER_ABS_FLOOR)
# of each other form one principal-curvature cluster
CLUSTER_REL_TOL = 1e-6
CLUSTER_ABS_FLOOR = 1e-9

FAMILIES = ("m1", "m2", "m3", "m4", "m5", "m6")
THREE_CURVATURE_FAMILIES = ("m1", "m2", "m3")
FIVE_CURVATURE_FAMILIES = ("m4", "m5", "m6")

PLUS = "PLUS"
MINUS = "MINUS"
REFLECT = "REFLECT"
OTHER = "OTHER"
UNDEFINED = "UNDEFINED"


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

class Immersion:
    """A parametrized immersion of a 5-parameter chart, with pushforward.

    Every method takes chart points as an array u of shape (..., 5) and
    broadcasts over its leading axes, so a whole finite-difference stencil
    is one call.  The chart maps u to the point (x, y) (..., 4) of the
    product and the partials of each factor along its own coordinates,
    dx (..., 3, 4) along u[0:3] and dy (..., 2, 4) along u[3:5]; the other
    partials vanish.  x and dx are `_sphere_factor(u)`, y and dy
    `second_factor(u[..., 3], u[..., 4], *params)` (`_round_sphere` or
    `_torus`).  A composed family pushes these through the factor swap
    or the conjugation twist (`isometry`, SWAP or TWIST).

    The family parameters `params` are floats, one value for every chart
    point, or read-only (m,) arrays, one value per row: then u has m rows
    along its first axis, (m, ..., 5), and each row's stencil is charted
    with its own parameters.  `M[index]` is the immersion of those rows:
    floats for one row, sub-arrays for a slice; an immersion with float
    parameters is its own row.
    """

    def __init__(self, family: str, params: tuple, second_factor: Callable,
                 isometry: Optional[str] = None):
        self.family = family
        self.params = params
        self.rows = None if isinstance(params[0], float) else len(params[0])
        self._second_factor = second_factor
        self._isometry = isometry

    def __getitem__(self, index) -> "Immersion":
        if self.rows is None:
            return self
        return Immersion(self.family, tuple(_parameter(x[index]) for x in self.params),
                         self._second_factor, self._isometry)

    def _row_params(self, u: np.ndarray) -> tuple:
        """The parameters shaped (m, 1, ..., 1) to broadcast along the row
        axis of the leading axes of u (m, ..., 5); floats as they are."""
        if self.rows is None:
            return self.params
        if u.ndim < 2 or len(u) != self.rows:
            raise DomainError(f"chart points of shape {u.shape} do not have the "
                              f"{self.rows} rows of the family parameters")
        shape = (self.rows,) + (1,) * (u.ndim - 2)
        return tuple(x.reshape(shape) for x in self.params)

    def pushforward(self, u) -> tuple:
        """Points and chart pushforwards at the chart points u (..., 5).

        Returns (p, q, T) of shapes (..., 4), (..., 4) and (..., 5, 6):
        T[..., a, :] holds the frame coefficients of the a-th chart direction.
        Only the blocks that the factor partials reach are multiplied out;
        the rest of T is +0.0.  Each nonzero entry equals the frame
        coefficients of the chart velocities padded with zero rows to (5, 4)
        and pushed through `IsometryMap.differential_components` bit for bit;
        a zero entry there may be -0.0 where the real part of a factor is
        negative.
        """
        u = np.asarray(u, dtype=float)
        x, dx = _sphere_factor(u)
        y, dy = self._second_factor(u[..., 3], u[..., 4], *self._row_params(u))
        T = np.zeros(u.shape[:-1] + (5, 6))
        if self._isometry == TWIST:
            p, q, du, dv = twist_blocks(x, y, dx, dy)
            T[..., :3, :3] = factor_coords(p[..., None, :], du)
            T[..., :, 3:] = factor_coords(q[..., None, :], dv)
            return p, q, T
        if self._isometry == SWAP:
            T[..., :3, 3:] = factor_coords(x[..., None, :], dx)
            T[..., 3:, :3] = factor_coords(y[..., None, :], dy)
            return y, x, T
        T[..., :3, :3] = factor_coords(x[..., None, :], dx)
        T[..., 3:, 3:] = factor_coords(y[..., None, :], dy)
        return x, y, T


def _sphere_factor(u):
    """x = e^{u0 i} e^{u1 j} e^{u2 k} and its three partials (..., 3, 4) at
    the chart coordinates u[..., 0:3]: i x, e^{u0 i} j e^{u1 j} e^{u2 k}
    and x k.

    Closed forms in the cosines c_a and sines s_a of the three factors,
    read from one `quat.exp_pure` call.  Each component adds the products of
    `quat.mul`'s Hamilton formula for the chained products that are not
    zero by construction, in that formula's order; the products left out
    are exact zeros, so each nonzero component equals the chained products
    bit for bit.  A component that can vanish (at a zero coordinate) is
    written with 0.0 added or as 0.0 minus its terms, which turns -0.0 into
    +0.0 as the zeros left out do wherever the cosines are positive.
    """
    g = qt.exp_pure(u[..., :3, None] * np.eye(3))
    c0, c1, c2 = g[..., 0, 0], g[..., 1, 0], g[..., 2, 0]
    s0, s1, s2 = g[..., 0, 1], g[..., 1, 2], g[..., 2, 3]
    # e^{u0 i} e^{u1 j} = a + b i + c j + d k
    a, b, c, d = c0 * c1, s0 * c1, c0 * s1, s0 * s1
    w = a * c2 - d * s2
    xi, xj, xk = b * c2 + c * s2 + 0.0, c * c2 - b * s2 + 0.0, a * s2 + d * c2 + 0.0
    out = np.stack([w, xi, xj, xk,
                    0.0 - xi, w, 0.0 - xk, xj,
                    0.0 - c * c2 - b * s2, a * s2 - d * c2 + 0.0, a * c2 + d * s2,
                    b * c2 - c * s2 + 0.0,
                    0.0 - xk, xj, 0.0 - xi, w], axis=-1).reshape(u.shape[:-1] + (4, 4))
    return out[..., 0, :], out[..., 1:, :]


def _trailing(x, n: int):
    """A family parameter with n unit axes appended, to scale arrays with n
    more axes than the chart's leading ones; a float as it is."""
    return x if isinstance(x, float) else x[(...,) + (None,) * n]


def _round_sphere(psi, chi, r):
    """Second factor sqrt(1 - r^2) + r y of m1, with y on the unit sphere of
    imaginaries at latitude psi and longitude chi; returns q and its two
    partials (..., 2, 4)."""
    c = np.sqrt(np.maximum(1.0 - r * r, 0.0))
    cp, sp, cc, sc = np.cos(psi), np.sin(psi), np.cos(chi), np.sin(chi)
    zero = np.zeros_like(psi)
    y = np.stack([zero, cp * cc, cp * sc, sp], axis=-1)
    dpsi = np.stack([zero, -sp * cc, -sp * sc, cp], axis=-1)
    dchi = np.stack([zero, -cp * sc, cp * cc, zero], axis=-1)
    return (_trailing(c, 1) * qt.ONE + _trailing(r, 1) * y,
            _trailing(r, 2) * np.stack([dpsi, dchi], axis=-2))


def _torus(phi1, phi2, k, l):
    """Second factor k e^{i phi1} + l e^{i phi2} j of m4; returns q and its
    two partials (..., 2, 4), k i e^{i phi1} and l i e^{i phi2} j.

    e^{i phi2} j and the products with i are signed permutations of the
    cosines and sines of one `quat.exp_pure` call; as in `_sphere_factor`,
    a component that can vanish adds 0.0 or is subtracted from 0.0, so
    every component equals the `quat.mul` products bit for bit, signed
    zeros included.
    """
    e = qt.exp_pure(np.stack([phi1, phi2], axis=-1)[..., None] * qt.vec(qt.E1))
    c1, s1, c2, s2 = e[..., 0, 0], e[..., 0, 1], e[..., 1, 0], e[..., 1, 1]
    zero = np.zeros_like(c1)
    q = np.stack([k * c1, k * s1 + 0.0, l * c2, l * s2 + 0.0], axis=-1)
    dq = np.stack([k * (0.0 - s1), k * c1, zero, zero,
                   zero, zero, l * (0.0 - s2), l * c2], axis=-1)
    return q, dq.reshape(c1.shape + (2, 4))


_ISOMETRY = {"m2": SWAP, "m3": TWIST, "m5": SWAP, "m6": TWIST}


def _parameter(x):
    """A family parameter as a float, or a 1-D array as a read-only copy."""
    a = np.array(x, dtype=float)
    if a.ndim == 0:
        return float(a)
    if a.ndim != 1:
        raise DomainError(f"a family parameter must be a float or a 1-D array, "
                          f"got shape {a.shape}")
    a.flags.writeable = False
    return a


def _validate(*checks) -> None:
    """Raise the message of the first failing (ok, message) check, in the
    order of the parameter rows and then of the checks, as checking each row
    on its own in turn would."""
    failing = [(int(np.argmin(ok)), message) for ok, message in checks if not np.all(ok)]
    if failing:
        raise DomainError(min(failing, key=lambda f: f[0])[1])


def make_example(family: str, r=None, k=None, l=None) -> Immersion:
    """Build one of the six example hypersurface families.

    Each parameter is a float, or a 1-D array of one value per chart-point
    row (k and l then of one length): the immersion of such arrays charts
    row i of its chart points with the family at the parameters' element i,
    as `make_example` at those floats would.  Each element is validated as
    a float is.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if family in THREE_CURVATURE_FAMILIES:
        if r is None or k is not None or l is not None:
            raise DomainError(f"family {family} takes the single parameter r")
        params = (_parameter(r),)
        r = params[0]
        _validate(((0.0 < r) & (r <= 1.0), "r must lie in (0, 1]"))
        second_factor = _round_sphere
    else:
        if r is not None or k is None or l is None:
            raise DomainError(f"family {family} takes the parameter pair (k, l)")
        params = (_parameter(k), _parameter(l))
        k, l = params
        if np.shape(k) != np.shape(l):
            raise DomainError("k and l must be two floats or two arrays of one length")
        _validate(((0.0 < k) & (k < 1.0) & (0.0 < l) & (l < 1.0),
                   "k and l must lie in (0, 1)"),
                  (~(np.abs(k * k + l * l - 1.0) > 1e-12),
                   "k and l must satisfy k^2 + l^2 = 1"))
        second_factor = _torus
    return Immersion(family, params, second_factor, _ISOMETRY.get(family))


def random_chart_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n chart points (n, 5) away from the coordinate degeneracies.

    The 3-sphere coordinates lock at u1 = +-pi/4 and the latitude at
    u3 = +-pi/2, so sampling stays well inside both bounds.  One call of
    `rng.random` draws seven uniforms a point, scaled as
    `Generator.uniform` scales them, low + (high - low) d: five for
    u[0:5] in (-0.6, 0.6), of which u[3] and u[4] are then redrawn in
    (-1.2, 1.2) and (-pi, pi) from the last two.  So the points and the
    generator's state equal those of drawing the points one at a time,
    bit for bit.
    """
    d = rng.random((n, 7))
    u = -0.6 + (0.6 - -0.6) * d[:, :5]
    u[:, 3] = -1.2 + (1.2 - -1.2) * d[:, 5]
    u[:, 4] = -math.pi + (math.pi - -math.pi) * d[:, 6]
    return u


def random_chart_point(rng: np.random.Generator) -> np.ndarray:
    """One chart point (5,) of `random_chart_points`."""
    return random_chart_points(rng, 1)[0]


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def expected_spectrum(family: str, r: Optional[float] = None,
                      k: Optional[float] = None,
                      l: Optional[float] = None) -> np.ndarray:
    """Principal curvatures with multiplicity, ascending, from the closed forms."""
    if family in THREE_CURVATURE_FAMILIES:
        mid = math.sqrt(1.0 - r * r) / (2.0 * r)
        half = math.sqrt(3.0 - 2.0 * r * r) / (2.0 * SQRT3 * r)
        lam, bet = mid - half, mid + half
        return np.sort(np.array([0.0, lam, lam, bet, bet]))
    s1 = math.sqrt(9.0 * k * k + 3.0 * l * l)
    s2 = math.sqrt(3.0 * k * k + 9.0 * l * l)
    vals = [0.0,
            (3.0 * k - s1) / (6.0 * l),
            (3.0 * k + s1) / (6.0 * l),
            (-3.0 * l - s2) / (6.0 * k),
            (-3.0 * l + s2) / (6.0 * k)]
    return np.sort(np.array(vals))


def spectra_match(computed, reference):
    """Multiset distance up to one global sign; the better of the two signs.
    Broadcasts over the leading axes of both spectra (..., n)."""
    a = np.sort(np.asarray(computed, dtype=float), axis=-1)
    b = np.sort(np.asarray(reference, dtype=float), axis=-1)
    return np.minimum(np.max(np.abs(a - b), axis=-1),
                      np.max(np.abs(np.sort(-a, axis=-1) - b), axis=-1))


# ---------------------------------------------------------------------------
# pointwise hypersurface data
# ---------------------------------------------------------------------------

@dataclass
class HypersurfacePointData:
    """Frame-coordinate hypersurface apparatus at a batch of m chart points;
    the one handle every identity residual below takes, each returning one
    value per row.

    Every field but `immersion` carries the batch axis first, with the
    shapes below.  `data[a:b]` is the batch of those rows, with the
    immersion of its rows, `immersion[a:b]`; a batch of one row is the
    data of a single point.  An integer index raises TypeError, so the
    data is not iterable row by row.
    """

    immersion: Immersion
    u: np.ndarray                # (m, 5) chart points, read-only copy
    p: np.ndarray                # (m, 4) ambient points, first factor
    q: np.ndarray                # (m, 4) ambient points, second factor
    push_coords: np.ndarray      # (m, 5, 6) chart pushforwards
    tangent_frame: np.ndarray    # (m, 5, 6) rows g-orthonormal
    chart_weights: np.ndarray    # (m, 5, 5): frame_i = sum_a W[i, a] push_a
    xi: np.ndarray               # (m, 6) unit normals
    structure_vector: np.ndarray  # (m, 6) U = -J xi
    alpha: np.ndarray            # (m,) g(A U, U)
    shape: np.ndarray            # (m, 5, 5) symmetrized shape operators
    symmetry_residual: np.ndarray  # (m,)
    phi: np.ndarray              # (m, 5, 5): phi t_i = sum_j phi[i, j] t_j
    eta: np.ndarray              # (m, 5) frame components of U
    hopf_residual: np.ndarray    # (m,)
    a: np.ndarray                # (m,) g(P xi, xi)
    b: np.ndarray                # (m,) g(P xi, U)
    c: np.ndarray                # (m,) |P xi - a xi - b U|_g

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, index: slice) -> "HypersurfacePointData":
        """The rows `index` (a slice) as a batch."""
        if not isinstance(index, slice):
            raise TypeError(f"point data takes a slice of rows, not {type(index).__name__}")
        return HypersurfacePointData(
            self.immersion[index], *(getattr(self, f.name)[index] for f in fields(self)[1:]))

    def tangential(self, w6: np.ndarray) -> np.ndarray:
        return _tangential(w6, self.xi)

    def tangent_components(self, w6: np.ndarray) -> np.ndarray:
        return _mv(self.tangent_frame @ get_tables().g, w6)

    def from_components(self, x5) -> np.ndarray:
        return _vm(np.asarray(x5, dtype=float), self.tangent_frame)

    def apply_shape(self, w6: np.ndarray) -> np.ndarray:
        return _vm(_vm(self.tangent_components(w6), self.shape), self.tangent_frame)

    def apply_phi(self, w6: np.ndarray) -> np.ndarray:
        return self.tangential(_mv(get_tables().J, w6))


def _rowwise(f, *vectors):
    """f(tables, *vectors) with each frame vector (..., 6) passed as a
    one-row matrix, for `frames.curvature_closed_form`, which multiplies its
    arguments by constant matrices."""
    return f(get_tables(), *(v[..., None, :] for v in vectors))[..., 0, :]


def _first_row(u: np.ndarray, bad) -> list:
    """The first chart point of u (..., 5) where the mask bad (...) holds."""
    return u[bad][0].tolist()


def _tangential(w: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Tangent part of frame vectors w (..., 6) at unit normals xi."""
    return w - g_inner(get_tables(), w, xi)[..., None] * xi


def _gram(T: np.ndarray) -> np.ndarray:
    t = get_tables()
    return T @ t.g @ np.swapaxes(T, -1, -2)


def _above_rank_tol(gram: np.ndarray) -> bool:
    """Whether every Gram matrix (..., 5, 5) has its smallest eigenvalue
    above RANK_TOL, up to rounding near RANK_TOL: one batched Cholesky
    factorization of gram - RANK_TOL I, which succeeds with a finite factor
    exactly when that shifted matrix is positive definite."""
    try:
        factor = np.linalg.cholesky(gram - RANK_TOL * np.eye(5))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(factor)))


def _chart_data(M: Immersion, u) -> tuple:
    """Points p, q (..., 4) and pushforwards T (..., 5, 6) at the chart
    points u (..., 5), from one pushforward call; raises where the
    pushforward loses rank.

    The rank test is `_above_rank_tol`; only where it fails do the
    eigenvalues of the Gram matrices name the first chart point whose
    smallest eigenvalue is at most RANK_TOL (a non-finite Gram matrix
    raises LinAlgError there)."""
    p, q, T = M.pushforward(u)
    gram = _gram(T)
    if not _above_rank_tol(gram):
        low = np.linalg.eigvalsh(gram)[..., 0] <= RANK_TOL
        if np.any(low):
            raise DegenerateImmersionError(
                f"pushforward rank below 5 at u={_first_row(u, low)}")
    return p, q, T


def _orthonormal_frame(T: np.ndarray) -> tuple:
    """g-orthonormal tangent frames W T and chart weights W (..., 5, 5)."""
    L = np.linalg.cholesky(_gram(T))
    W = np.linalg.solve(L, np.broadcast_to(np.eye(5), L.shape))
    return W @ T, W


def _unit_normal(T: np.ndarray) -> np.ndarray:
    """Unit normals (..., 6) of the pushforwards T (..., 5, 6)."""
    t = get_tables()
    xi = np.linalg.svd(T @ t.g)[2][..., -1, :]
    return xi / np.sqrt(xi[..., None, :] @ t.g @ xi[..., :, None])[..., 0]


def _aligned(x, ref):
    """Frame vectors x (..., 6), negated where they point away from ref."""
    return np.where(np.sum(x * ref, axis=-1, keepdims=True) < 0.0, -x, x)


def analyze_points(M: Immersion, U) -> HypersurfacePointData:
    """Full pointwise apparatus of the hypersurface at the chart points U
    (m, 5), as one batch of point data, from one chart call on their
    stencils of 11 points each: the point and the ends of its chart
    segments of half-length NORMAL_H along the five chart directions.

    The shape operator comes from the Weingarten relation A X = -(D_X xi)^T:
    the normals at the segment ends are aligned with the point's and
    differenced by `_covariant_fd` along each chart direction, and the
    chart weights take those derivatives to the orthonormal tangent frame.
    The normals are oriented by the trace rule.  The data's `u` is a
    read-only copy of U.  An immersion with per-row parameters takes one
    chart point per parameter row; U of another row count raises
    DomainError.
    """
    U = np.array(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != 5:
        raise DomainError(f"chart points must have shape (m, 5), got {U.shape}")
    U.flags.writeable = False
    t = get_tables()
    ends = _segments(U[:, None, :], np.eye(5), NORMAL_H).reshape(-1, 10, 5)
    p, q, T = _chart_data(M, np.concatenate([U[:, None, :], ends], axis=1))
    normals = _unit_normal(T)
    xi = normals[:, 0]
    push = T[:, 0]
    frame, W = _orthonormal_frame(push)
    # (D xi)^T along the five chart directions, then along the tangent frame
    values = _aligned(normals[:, 1:], xi[:, None]).reshape(-1, 5, 2, 6)
    chart_dxi = _covariant_fd((p[:, :1], q[:, :1]), xi[:, None],
                              (p[:, 1:].reshape(-1, 5, 2, 4), q[:, 1:].reshape(-1, 5, 2, 4)),
                              values, push, xi[:, None], NORMAL_H)
    A = -(W @ chart_dxi @ t.g @ np.swapaxes(frame, -1, -2))

    tr = np.trace(A, axis1=-2, axis2=-1)
    lead_idx = np.argmax(np.abs(xi) > TRACE_TIE_TOL, axis=-1)
    lead = np.take_along_axis(xi, lead_idx[:, None], axis=-1)[:, 0]
    flip = np.where(np.abs(tr) > TRACE_TIE_TOL, tr < 0.0, lead < 0.0)
    xi = np.where(flip[:, None], -xi, xi)
    A = np.where(flip[:, None, None], -A, A)

    At = np.swapaxes(A, -1, -2)
    symmetry = np.max(np.abs(A - At), axis=(-2, -1))
    A = 0.5 * (A + At)

    uvec = -_mv(t.J, xi)
    eta = _mv(frame @ t.g, uvec)
    phi_rows = (_tangential(frame @ t.J.T, xi[:, None, :]) @ t.g
                @ np.swapaxes(frame, -1, -2))

    au = _vm(eta, A)
    alpha = _dot(au, eta)
    off = au - alpha[:, None] * eta
    hopf_residual = np.sqrt(_dot(off, off))

    pxi = _mv(t.P, xi)
    a_coef = g_inner(t, pxi, xi)
    b_coef = g_inner(t, pxi, uvec)
    rem = pxi - a_coef[:, None] * xi - b_coef[:, None] * uvec
    c_coef = g_norm(t, rem)

    return HypersurfacePointData(
        immersion=M,
        u=U,
        p=p[:, 0],
        q=q[:, 0],
        push_coords=push,
        tangent_frame=frame,
        chart_weights=W,
        xi=xi,
        structure_vector=uvec,
        alpha=alpha,
        shape=A,
        symmetry_residual=symmetry,
        phi=phi_rows,
        eta=eta,
        hopf_residual=hopf_residual,
        a=a_coef,
        b=b_coef,
        c=c_coef,
    )


def analyze_point(M: Immersion, u) -> HypersurfacePointData:
    """`analyze_points` at the one chart point u (5,), as a batch of one row."""
    return analyze_points(M, np.asarray(u, dtype=float)[None])


# ---------------------------------------------------------------------------
# spectra and classification
# ---------------------------------------------------------------------------

def _cluster_starts(values: np.ndarray, rel_tol: float,
                    abs_floor: float) -> np.ndarray:
    """Where each of the ascending values (..., n) opens a new cluster.

    A value joins its predecessor's cluster when their gap is at most
    max(rel_tol * max |value|, abs_floor), taken over its row; a NaN gap or
    threshold opens a new cluster.
    """
    threshold = np.maximum(rel_tol * np.max(np.abs(values), axis=-1), abs_floor)
    joins = np.diff(values, axis=-1) <= threshold[..., None]
    return np.concatenate([np.ones(values.shape[:-1] + (1,), dtype=bool), ~joins],
                          axis=-1)


def cluster_eigenvalues(values) -> list:
    """Group ascending eigenvalues into clusters of nearly equal values."""
    values = np.sort(np.asarray(values, dtype=float))
    starts = _cluster_starts(values, CLUSTER_REL_TOL, CLUSTER_ABS_FLOOR)
    return [list(c) for c in np.split(values, np.flatnonzero(starts)[1:])]


@dataclass
class SpectralReport:
    """Shape-operator spectra and distribution diagnostics of a batch of
    point data, with the batch axis first.

    The cluster sizes and means are in cluster order, padded with zeros;
    theta and theta_sine are NaN where the row has no two-dimensional
    eigenspace.  `rep[a:b]` is the report of those rows.
    """

    eigenvalues: np.ndarray        # (m, 5) ascending
    multiplicities: np.ndarray     # (m, 5) cluster sizes
    cluster_means: np.ndarray      # (m, 5)
    trace: np.ndarray              # (m,)
    mean_curvature: np.ndarray     # (m,)
    dim_distribution: np.ndarray   # (m,) 2 or 4
    theta: np.ndarray              # (m,)
    # sqrt(1 - theta^2), computed as |J X1 - g(J X1, X2) X2|_g from the same
    # eigenvectors; well conditioned at theta = 1 where the square root of
    # 1 - theta^2 is not
    theta_sine: np.ndarray         # (m,)

    def __getitem__(self, index: slice) -> "SpectralReport":
        """The report of the rows `index` (a slice)."""
        if not isinstance(index, slice):
            raise TypeError(f"a spectral report takes a slice of rows, "
                            f"not {type(index).__name__}")
        return SpectralReport(*(getattr(self, f.name)[index] for f in fields(self)))


def spectral_report(data: HypersurfacePointData) -> SpectralReport:
    """The spectral report of the point data, from one `eigh` call.

    Cluster sums run left to right from 0.0, the order in which numpy sums
    a short row, and every product keeps each row's vectors one-row
    matrices, so each row equals the report of that row alone bitwise.
    """
    t = get_tables()
    evals, evecs = np.linalg.eigh(data.shape)
    rows, pos = np.arange(len(evals)), np.arange(5)
    starts = _cluster_starts(evals, CLUSTER_REL_TOL, CLUSTER_ABS_FLOOR)
    ends = np.append(starts[:, 1:], np.ones((len(evals), 1), dtype=bool), axis=-1)

    # each value's cluster, and the size and running sum of that cluster up
    # to and including the value
    cluster = np.cumsum(starts, axis=-1) - 1
    sizes = pos + 1 - np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    sums = np.empty_like(evals)
    total = np.zeros(len(evals))
    for j in pos:
        total = np.where(starts[:, j], 0.0, total) + evals[:, j]
        sums[:, j] = total

    # sizes and means in cluster order, read at each cluster's last value
    r, j = np.nonzero(ends)
    mult = np.zeros(evals.shape, dtype=int)
    means = np.zeros_like(evals)
    last = np.zeros(evals.shape, dtype=int)
    mult[r, cluster[r, j]] = sizes[r, j]
    means[r, cluster[r, j]] = sums[r, j] / sizes[r, j]
    last[r, cluster[r, j]] = j

    # invariant |g(J X1, X2)| of the top two-dimensional eigenspace, from
    # the pair of eigenvector columns it ends at
    double = mult == 2
    first = last[rows, 4 - np.argmax(double[:, ::-1], axis=-1)] - 1
    X = np.stack([_vm(evecs[:, :, k], data.tangent_frame) for k in pos], axis=1)
    x1, x2 = X[rows, first], X[rows, first + 1]
    theta = np.abs(_dot(_vm(x1, t.g), _mv(t.J, x2)))
    jx1 = _mv(t.J, x1)
    theta_sine = g_norm(t, jx1 - _dot(_vm(jx1, t.g), x2)[:, None] * x2)
    no_double = ~np.any(double, axis=-1)

    trace = np.sum(evals, axis=-1)
    return SpectralReport(
        eigenvalues=evals,
        multiplicities=mult,
        cluster_means=means,
        trace=trace,
        mean_curvature=trace / 5.0,
        dim_distribution=np.where(data.c <= DIM_TOL, 2, 4),
        theta=np.where(no_double, np.nan, theta),
        theta_sine=np.where(no_double, np.nan, theta_sine),
    )


_CLASS_TABLE = (
    (PLUS, 0.5, -SQRT3 / 2.0),
    (MINUS, 0.5, SQRT3 / 2.0),
    (REFLECT, -1.0, 0.0),
)


def classify_normal_action(data: HypersurfacePointData) -> np.ndarray:
    """Which of the three product-structure actions the normal realizes,
    as an (m,) array of class names.

    Reads the coefficients a, b, c of P xi from the point data.  A class is
    defined only when P xi lies in span(xi, U), that is when the canonical
    distribution spanned by xi, U and their images under P is
    2-dimensional; the rows where it is not are UNDEFINED.
    """
    a, b = data.a, data.b
    conditions = [data.c > DIM_TOL] + [(np.abs(a - a0) <= CLASS_TOL) & (np.abs(b - b0) <= CLASS_TOL)
                                       for _, a0, b0 in _CLASS_TABLE]
    return np.select(conditions, [UNDEFINED] + [name for name, _, _ in _CLASS_TABLE], OTHER)


def normal_action_residual(data: HypersurfacePointData, name: str) -> np.ndarray:
    """Distance of the point data's (a, b) from the named class, per row."""
    for cname, a0, b0 in _CLASS_TABLE:
        if cname == name:
            return np.maximum(np.abs(data.a - a0), np.abs(data.b - b0))
    raise DomainError(f"unknown class {name!r}")


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def _segments(u, vels, h: float) -> np.ndarray:
    """The ends u + h vel and u - h vel (..., 2, 5) of the chart segments
    through the chart points u along the chart velocities vels (..., 5)."""
    return np.stack([u + h * vels, u - h * vels], axis=-2)


def _covariant_fd(at: tuple, xi, ends: tuple, values, x6, value,
                  h: float) -> np.ndarray:
    """Induced derivative D_X F (..., 6) at the points at = (p, q) (..., 4)
    with unit normals xi of a field F, from its frame values (..., 2, 6) at
    the ends = (p, q) (..., 2, 4) of the chart segments of half-length h
    along X = x6 and its value there: the flat R^8 central difference in
    frame coefficients, minus the connection gap of X and that value, minus
    the normal part.  Broadcasts."""
    f8 = frame_to_r8(*ends, values)
    d8 = (f8[..., 0, :] - f8[..., 1, :]) / (2.0 * h)
    return _tangential(r8_to_frame(*at, d8) - connection_gap(get_tables(), x6, value),
                       xi)


@dataclass
class StencilResiduals:
    """The residuals of `stencil_residuals` and the induced sectional value
    g(R_ind(X, Y) Z, X), one value per row of the directions."""

    transport: np.ndarray
    gauss: np.ndarray
    codazzi: np.ndarray
    sectional: np.ndarray


def stencil_residuals(data: HypersurfacePointData, x5, y5, z5) -> StencilResiduals:
    """Residuals of the three finite-difference identities, per row of the
    directions x5, y5, z5 (m, 5):

    - transport of the structure vector, D_X U = phi A X - G(X, xi), from
      the central difference of U = -J xi along X of half-length
      NORMAL_H;
    - Gauss, R_ind(X, Y) Z = (R(X, Y) Z)^T + g(A Z, Y) A X - g(A Z, X) A Y;
    - Codazzi, (D_X A) Y - (D_Y A) X = -(R(X, Y) xi)^T;

    with the ambient curvature R from `frames.curvature_closed_form`; and
    g(R_ind(X, Y) Z, X), which along an orthonormal pair X, Y with Z = Y is
    the induced sectional curvature of their plane.  The transport's two
    segment ends and the 16 fresh points of the nested stencil of step
    NESTED_H (`_nested_fd`) are evaluated in one chart call of 18 points a
    row, with one `_unit_normal` call, so a normal that is undefined at any
    of the 18 points raises DegenerateImmersionError.
    """
    t = get_tables()
    x5, y5, z5 = (np.asarray(v, dtype=float) for v in (x5, y5, z5))
    X, Y, Z = (data.from_components(v) for v in (x5, y5, z5))
    vels, nested = _nested_points(data, x5, y5)
    ends = _segments(data.u, vels[..., 0, :], NORMAL_H)
    p, q, T = _chart_data(data.immersion, np.concatenate([ends, nested], axis=-2))
    xi = _aligned(_unit_normal(T), data.xi[..., None, :])

    dU = _covariant_fd((data.p, data.q), data.xi, (p[..., :2, :], q[..., :2, :]),
                       -(xi[..., :2, :] @ t.J.T), X, data.structure_vector, NORMAL_H)
    transport = dU - (data.apply_phi(data.apply_shape(X)) - tensor_G(t, X, data.xi))

    induced, dxi = _nested_fd(data, x5, y5, z5, vels,
                              (p[..., 2:, :], q[..., 2:, :], T[..., 2:, :, :], xi[..., 2:, :]))
    az = data.apply_shape(Z)
    gauss = induced - (data.tangential(_rowwise(curvature_closed_form, X, Y, Z))
                       + g_inner(t, az, Y)[..., None] * data.apply_shape(X)
                       - g_inner(t, az, X)[..., None] * data.apply_shape(Y))
    codazzi = -dxi + data.tangential(_rowwise(curvature_closed_form, X, Y, data.xi))
    return StencilResiduals(*(g_norm(t, r) for r in (transport, gauss, codazzi)),
                            g_inner(t, induced, X))


# The three one-identity residuals below are each one field of
# `stencil_residuals`, so each charts its whole 18-point stencil; the
# program calls `stencil_residuals` itself, and these keep the names the
# benchmark's tracer spans.

def reeb_transport_residual(data: HypersurfacePointData, x5) -> np.ndarray:
    """The transport residual of `stencil_residuals` along x5 (m, 5)."""
    return stencil_residuals(data, x5, x5, x5).transport


def codazzi_residual(data: HypersurfacePointData, x5, y5) -> np.ndarray:
    """The Codazzi residual of `stencil_residuals` along x5, y5 (m, 5)."""
    return stencil_residuals(data, x5, y5, y5).codazzi


def gauss_residual(data: HypersurfacePointData, x5, y5, z5) -> np.ndarray:
    """The Gauss residual of `stencil_residuals` along x5, y5, z5 (m, 5)."""
    return stencil_residuals(data, x5, y5, z5).gauss


# the chart points (direction, prime, stencil slot) of the nested stencil
# that its chart call evaluates: all but the point itself, slot [d, 2, 0]
_FRESH = np.ones((2, 3, 3), dtype=bool)
_FRESH[:, 2, 0] = False


def _nested_points(data: HypersurfacePointData, x5, y5) -> tuple:
    """The chart velocities vels (m, 2, 5) of X and Y, given by their
    tangent-frame components x5, y5 (m, 5), and the 16 fresh chart points
    (m, 16, 5) of the nested stencil of step NESTED_H along them (see
    `_nested_fd`), in the order of `_FRESH`."""
    vels = np.stack([_vm(v, data.chart_weights) for v in (x5, y5)], axis=-2)
    u = data.u[..., None, None, :]
    primes = np.concatenate([_segments(u[..., 0, :], vels, NESTED_H),
                             np.broadcast_to(u, vels.shape[:-1] + (1, 5))], axis=-2)
    points = np.concatenate([primes[..., None, :],
                             _segments(primes, vels[..., ::-1, None, :], NESTED_H)], axis=-2)
    return vels, points[..., _FRESH, :]


def _on_stencil(fresh, own) -> np.ndarray:
    """An array (m, 2, 3, 3, ...) over the nested stencil, from its values
    at the fresh points (m, 16, ...) and the point's own value (m, ...)."""
    out = np.empty(fresh.shape[:1] + _FRESH.shape + fresh.shape[2:])
    out[:, _FRESH] = fresh
    out[:, :, 2, 0] = own[:, None]
    return out


def _nested_fd(data: HypersurfacePointData, x5, y5, z5, vels, fresh: tuple) -> np.ndarray:
    """D_X D_Y F - D_Y D_X F (2, m, 6) of two fields F along the
    chart-constant extensions of X and Y, given by their tangent-frame
    components x5, y5 (m, 5) and chart velocities vels (m, 2, 5): two
    stacked central differences of step NESTED_H.  The extensions commute,
    so this is R(X, Y) F of the induced connection for a tangent field.
    Field 0 is the chart-constant extension of Z (components z5), which
    gives R_ind(X, Y) Z; field 1 the unit normal, whose inner steps give
    (D_Y xi)^T = -A Y at the primes along X (and -A X along Y), so that it
    gives -((D_X A) Y - (D_Y A) X) with no shape operator built away from
    the point itself.

    The inner derivatives along Y (and X) are taken in frame coefficients at
    the point and at its two neighbours along X (and Y), the primes: six
    primes with three chart points each per row, indexed (direction, prime,
    slot) with slot 0 the prime itself.  The point itself (prime 2 of
    either direction) takes its chart data and normal from the point data;
    fresh = (p, q, T, xi) holds those of the other 16 points
    (`_nested_points`), with the normals aligned with the point's.  Both
    fields go through one pair of `_covariant_fd` calls, stacked on a
    leading field axis.
    """
    p, q, T, xi = (_on_stencil(a, own) for a, own in
                   zip(fresh, (data.p, data.q, data.push_coords, data.xi)))
    zchart = _vm(z5, data.chart_weights)[..., None, None, None, :]
    values = np.stack([_vm(zchart, T), xi])
    inner_vels = vels[..., ::-1, None, :]
    inner = _covariant_fd((p[..., 0, :], q[..., 0, :]), xi[..., 0, :],
                          (p[..., 1:, :], q[..., 1:, :]), values[..., 1:, :],
                          _vm(inner_vels, T[..., 0, :, :]), values[..., 0, :], NESTED_H)
    # the outer differences along X and Y, centred at prime 2, the point itself
    XY = np.stack([data.from_components(x5), data.from_components(y5)], axis=-2)
    outer = _covariant_fd((p[..., 2, 0, :], q[..., 2, 0, :]), data.xi[..., None, :],
                          (p[..., :2, 0, :], q[..., :2, 0, :]),
                          inner[..., :2, :], XY, inner[..., 2, :], NESTED_H)
    return outer[..., 0, :] - outer[..., 1, :]


def hopf_identity_residual(data: HypersurfacePointData, x5, y5) -> np.ndarray:
    """Residual of the pointwise identity tying A, phi and G on the
    structure-vector complement of a Hopf hypersurface, per row of the
    directions x5, y5 (m, 5)."""
    t = get_tables()
    bad = data.hopf_residual > HOPF_TOL
    if np.any(bad):
        raise PreconditionError(
            f"point fails the Hopf condition at u={_first_row(data.u, bad)}")
    x5 = np.asarray(x5, dtype=float)
    y5 = np.asarray(y5, dtype=float)
    bad = ((np.abs(_dot(x5, data.eta)) > ORTHO_TOL)
           | (np.abs(_dot(y5, data.eta)) > ORTHO_TOL))
    if np.any(bad):
        raise PreconditionError("arguments must be orthogonal to the structure "
                                f"vector at u={_first_row(data.u, bad)}")

    X = data.from_components(x5)
    Y = data.from_components(y5)
    xi, uvec = data.xi, data.structure_vector
    alpha = data.alpha[..., None]
    px, py = _mv(t.P, X), _mv(t.P, Y)

    lhs = (1.0 / 6.0) * g_inner(t, data.apply_phi(X), Y) - (2.0 / 3.0) * (
        g_inner(t, px, xi) * g_inner(t, py, uvec)
        - g_inner(t, px, uvec) * g_inner(t, py, xi)
    )

    gxxi = tensor_G(t, X, xi)
    ax = data.apply_shape(X)
    rhs_vec = (
        alpha * gxxi - data.apply_shape(gxxi)
        + tensor_G(t, alpha * X - ax, xi)
        - alpha * (data.apply_shape(data.apply_phi(X)) + data.apply_phi(ax))
        + 2.0 * data.apply_shape(data.apply_phi(ax))
    )
    return np.abs(lhs - g_inner(t, rhs_vec, Y))


# ---------------------------------------------------------------------------
# moduli relations and leaf geometry of the round-sphere families
# ---------------------------------------------------------------------------

@dataclass
class ThetaConsistency:
    theta: np.ndarray
    r_residual: np.ndarray
    spectrum_residual: np.ndarray
    product_residual: np.ndarray


def theta_r_consistency(data: HypersurfacePointData,
                        rep: SpectralReport) -> ThetaConsistency:
    """Consistency of the eigenspace invariant theta with the modulus r.

    Checks r = sqrt(3) theta / sqrt(1 + 2 theta^2), the closed forms
    (1 +/- sqrt(1 - theta^2)) / (2 sqrt(3) theta) for the absolute values
    of the double principal curvatures, and their exact product -1/12.
    The spectrum is read from rep, the spectral report of the same rows
    (`spectral_report(data)` or rows of a larger one); sqrt(1 - theta^2) is
    its `theta_sine`, so the closed forms keep full accuracy at r = 1, where
    theta = 1.  Each field holds one value per row of the data, against the
    immersion's r of that row.
    """
    M = data.immersion
    if M.family not in THREE_CURVATURE_FAMILIES:
        raise PreconditionError("theta-r consistency applies to m1, m2, m3")
    r = M.params[0]
    double = rep.multiplicities == 2
    bad = np.count_nonzero(double, axis=-1) != 2
    if np.any(bad):
        raise DegenerateImmersionError(
            f"no two-dimensional principal eigenspaces at u={_first_row(data.u, bad)}")
    theta = rep.theta
    r_res = np.abs(r - SQRT3 * theta / np.sqrt(1.0 + 2.0 * theta * theta))

    s = rep.theta_sine
    scale = 2.0 * SQRT3 * theta
    closed = np.sort(np.stack([(1.0 + s) / scale, (1.0 - s) / scale], axis=-1), axis=-1)
    doubles = rep.cluster_means[double].reshape(-1, 2)
    observed = np.sort(np.abs(doubles), axis=-1)
    spec_res = np.max(np.abs(observed - closed), axis=-1)

    prod_res = np.abs(doubles[..., 0] * doubles[..., 1] + 1.0 / 12.0)
    return ThetaConsistency(theta, r_res, spec_res, prod_res)


@dataclass
class LeafGeometry:
    sphere3_metric_residual: np.ndarray     # factor pullback vs 4/3 of round
    sphere2_metric_residual: np.ndarray     # factor pullback vs 4 r^2 / 3 of round
    sphere3_sectional: np.ndarray           # finite-difference sectional curvature
    sphere2_curvature_residual: np.ndarray  # (1 + 2 theta^2)/(4 theta^2) vs 3/(4 r^2)


def leaf_directions(data: HypersurfacePointData) -> tuple:
    """Tangent-frame components x5, y5 (m, 5) of a g-orthonormal pair
    spanning the first two chart directions, both tangent to the 3-sphere
    factor leaf: the plane whose sectional curvature `leaf_geometry` reads,
    as `stencil_residuals(data, x5, y5, y5).sectional`."""
    comp = data.tangent_frame @ get_tables().g @ np.swapaxes(data.push_coords, -1, -2)
    # a contiguous copy: BLAS sums a strided vector in another order
    c0 = np.ascontiguousarray(comp[..., :, 0])
    x5 = c0 / np.sqrt(_dot(c0, c0))[..., None]
    y5 = comp[..., :, 1] - _dot(comp[..., :, 1], x5)[..., None] * x5
    return x5, y5 / np.sqrt(_dot(y5, y5))[..., None]


def leaf_geometry(data: HypersurfacePointData, sectional,
                  rep: SpectralReport) -> LeafGeometry:
    """Geometry of the two product-factor leaves through each chart point.

    The 3-sphere factor leaf carries 4/3 times its round metric, so its
    sectional curvature is 3/4; sectional is that value recomputed from the
    induced curvature by finite differences, the `StencilResiduals` field
    along the pair of `leaf_directions` of the same rows.  The 2-sphere
    factor leaf carries 4 r^2 / 3 times the round metric, so its curvature
    is 3 / (4 r^2), which in terms of the eigenspace invariant theta of
    rep, the spectral report of the same rows, reads (1 + 2 theta^2) /
    (4 theta^2).  Each field holds one value per row of the data, against
    the immersion's r of that row.
    """
    M, u = data.immersion, data.u
    if M.family not in THREE_CURVATURE_FAMILIES:
        raise PreconditionError("leaf geometry applies to m1, m2, m3")
    r = M.params[0]
    gram = _gram(data.push_coords)

    # round-metric reference grams come from the base chart; the induced
    # gram is unchanged under the ambient isometries of m2 and m3
    _, dx = _sphere_factor(u)
    round3 = dx @ np.swapaxes(dx, -1, -2)
    res3 = np.max(np.abs(gram[..., :3, :3] - (4.0 / 3.0) * round3), axis=(-2, -1))
    round2 = np.zeros(u.shape[:-1] + (2, 2))
    round2[..., 0, 0] = 1.0
    round2[..., 1, 1] = np.cos(u[..., 3]) ** 2
    r2 = _trailing(r, 2)
    res2 = np.max(np.abs(gram[..., 3:, 3:] - (4.0 / 3.0) * r2 * r2 * round2),
                  axis=(-2, -1))

    theta = rep.theta
    bad = np.isnan(theta)
    if np.any(bad):
        raise DegenerateImmersionError(
            f"no two-dimensional principal eigenspace at u={_first_row(u, bad)}")
    k2 = (1.0 + 2.0 * theta * theta) / (4.0 * theta * theta)
    res_k2 = np.abs(k2 - 3.0 / (4.0 * r * r))
    return LeafGeometry(res3, res2, sectional, res_k2)
