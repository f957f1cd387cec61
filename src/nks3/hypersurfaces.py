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

`analyze_points` produces the pointwise apparatus of a hypersurface at a
batch of chart points, as one `HypersurfacePointData` whose fields carry
the batch axis (`analyze_point` returns the one-point view of a batch of
one): the metric normal xi, the structure vector U = -J xi, the induced
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
itself.

Everything downstream (spectra, residuals of the Gauss, Codazzi and
structure-vector transport identities) works in frame coordinates, where
the structure tensors are constant matrices.  The residuals broadcast over
the batch axis of the point data: each evaluates its finite-difference
stencils for all rows in one chart call, and its products keep each row's
vectors one-row matrices (`_vm`, `_mv`, and `_rowwise` for
`frames.curvature_closed_form`, the one frame function that multiplies its
arguments by constant matrices; the bilinear frame tensors are per-row
products already), so a batched row equals the residual of that row's
one-point view bitwise.  The spectral report, the theta-r relation and the
normal-action class take a batch the same way, with one `eigh` call for
all rows.  Normals are held and
sign-aligned in frame coefficients; the flat R^8 form appears only inside
the finite-difference step `_covariant_fd`.

Orientation convention: the normal sign is chosen so that trace(A) >= 0,
with a lexicographic tie-break on the frame coefficients of xi when the
trace vanishes.  Spectra of a hypersurface and of its image under an
ambient isometry then agree as multisets up to one global sign, and that
is how spectra are compared throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import quat as qt
from .errors import DegenerateImmersionError, DomainError, PreconditionError
from .frames import (
    connection_gap,
    curvature_closed_form,
    frame_coords_components,
    frame_to_r8,
    g_inner,
    g_norm,
    get_tables,
    r8_to_frame,
    tensor_G,
)
from .isometries import IsometryMap, conjugation_twist, factor_swap

SQRT3 = math.sqrt(3.0)

RANK_TOL = 1e-6
TRACE_TIE_TOL = 1e-9
DIM_TOL = 1e-6
CLASS_TOL = 1e-6
HOPF_TOL = 1e-6
ORTHO_TOL = 1e-8

NORMAL_H = 1e-5  # central-difference step for the normal and structure vector
NESTED_H = 1e-4  # step of both levels of the Gauss, Codazzi and leaf-curvature stencil

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
    is one call.  The chart maps u to component arrays (p, q, U, V): the
    point (..., 4) on each factor and the raw chart velocities (..., 5, 4)
    of each factor.  A composed family pushes these through an ambient
    isometry.

    The family parameters `params` are floats, one value for every chart
    point, or read-only (m,) arrays, one value per row: then u has m rows
    along its first axis, (m, ..., 5), and each row's stencil is charted
    with its own parameters.  `M[index]` is the immersion of those rows:
    floats for one row, sub-arrays for a slice; an immersion with float
    parameters is its own row.
    """

    def __init__(self, family: str, params: tuple, chart: Callable,
                 isometry: Optional[IsometryMap] = None):
        self.family = family
        self.params = params
        self.rows = None if isinstance(params[0], float) else len(params[0])
        self._chart = chart
        self._isometry = isometry

    def __getitem__(self, index) -> "Immersion":
        if self.rows is None:
            return self
        return Immersion(self.family, tuple(_parameter(x[index]) for x in self.params),
                         self._chart, self._isometry)

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

    def _components(self, u):
        u = np.asarray(u, dtype=float)
        p, q, U, V = self._chart(u, *self._row_params(u))
        if self._isometry is not None:
            U, V = self._isometry.differential_components(
                p[..., None, :], q[..., None, :], U, V)
            p, q = self._isometry.apply_components(p, q)
        return p, q, U, V

    def pushforward(self, u) -> tuple:
        """Points and chart pushforwards at the chart points u (..., 5).

        Returns (p, q, T) of shapes (..., 4), (..., 4) and (..., 5, 6):
        T[..., a, :] holds the frame coefficients of the a-th chart direction.
        """
        p, q, U, V = self._components(u)
        return p, q, frame_coords_components(p[..., None, :], q[..., None, :], U, V)


def _sphere_factor(u):
    """x and its three partials (..., 3, 4) at the chart coordinates
    u[..., 0:3]; each partial is (imaginary) * x."""
    g1, g2, g3 = np.moveaxis(qt.exp_pure(u[..., :3, None] * np.eye(3)), -2, 0)
    g12 = qt.mul(g1, g2)
    x = qt.mul(g12, g3)
    d0 = qt.mul(qt.E1, x)
    d1 = qt.mul(qt.mul(qt.mul(g1, qt.E2), g2), g3)
    d2 = qt.mul(qt.mul(g12, qt.E3), g3)
    return x, np.stack([d0, d1, d2], axis=-2)


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
    two partials (..., 2, 4)."""
    k, l = _trailing(k, 1), _trailing(l, 1)
    angles = np.stack([phi1, phi2], axis=-1)[..., None] * qt.vec(qt.E1)
    e1, e2 = np.moveaxis(qt.exp_pure(angles), -2, 0)
    e2j = qt.mul(e2, qt.E2)
    dq = np.stack([k * qt.mul(qt.E1, e1), l * qt.mul(qt.E1, e2j)], axis=-2)
    return k * e1 + l * e2j, dq


def _product_chart(second_factor: Callable) -> Callable:
    """Chart (u, *params) -> (p, q, U, V) of (x(u0, u1, u2),
    second_factor(u3, u4, *params))."""

    def chart(u, *params):
        x, dx = _sphere_factor(u)
        q, dq = second_factor(u[..., 3], u[..., 4], *params)
        U = np.zeros(u.shape[:-1] + (5, 4))
        V = np.zeros_like(U)
        U[..., :3, :] = dx
        V[..., 3:, :] = dq
        return x, q, U, V

    return chart


_ISOMETRY = {"m2": factor_swap, "m3": conjugation_twist,
             "m5": factor_swap, "m6": conjugation_twist}


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
    isometry = _ISOMETRY[family]() if family in _ISOMETRY else None
    return Immersion(family, params, _product_chart(second_factor), isometry)


def random_chart_point(rng: np.random.Generator) -> np.ndarray:
    """A chart point away from the coordinate degeneracies.

    The 3-sphere coordinates lock at u1 = +-pi/4 and the latitude at
    u3 = +-pi/2, so sampling stays well inside both bounds.
    """
    u = rng.uniform(-0.6, 0.6, size=5)
    u[3] = rng.uniform(-1.2, 1.2)
    u[4] = rng.uniform(-math.pi, math.pi)
    return u


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
    return _out(np.minimum(np.max(np.abs(a - b), axis=-1),
                           np.max(np.abs(np.sort(-a, axis=-1) - b), axis=-1)))


# ---------------------------------------------------------------------------
# pointwise hypersurface data
# ---------------------------------------------------------------------------

@dataclass
class HypersurfacePointData:
    """Frame-coordinate hypersurface apparatus at a batch of m chart points;
    the one handle every identity residual below takes.

    Every field but `immersion` carries the batch axis first: array fields
    are (m, ...) and the scalar fields (m,).  `data[i]` is the one-point
    view of row i, with the batch axis dropped, the scalar fields as
    floats and the immersion of its row; the residuals take a batch (one
    value per row) or a view (a float).  The shapes below are those of a
    view.
    """

    immersion: Immersion
    u: np.ndarray                # (5,) chart point, read-only copy
    p: np.ndarray                # (4,) ambient point, first factor
    q: np.ndarray                # (4,) ambient point, second factor
    push_coords: np.ndarray      # (5, 6) chart pushforwards
    tangent_frame: np.ndarray    # (5, 6) rows g-orthonormal
    chart_weights: np.ndarray    # (5, 5): frame_i = sum_a W[i, a] push_a
    xi: np.ndarray               # (6,) unit normal
    structure_vector: np.ndarray  # (6,) U = -J xi
    alpha: float                 # g(A U, U)
    shape: np.ndarray            # (5, 5) symmetrized shape operator
    symmetry_residual: float
    phi: np.ndarray              # (5, 5): phi t_i = sum_j phi[i, j] t_j
    eta: np.ndarray              # (5,) frame components of U
    hopf_residual: float
    a: float                     # g(P xi, xi)
    b: float                     # g(P xi, U)
    c: float                     # |P xi - a xi - b U|_g

    def __len__(self) -> int:
        if self.u.ndim != 2:
            raise TypeError("a one-point view has no rows")
        return len(self.u)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index) -> "HypersurfacePointData":
        """Row `index` as a one-point view (a batch for a slice), with the
        immersion of its rows, `immersion[index]`."""
        len(self)  # a one-point view has no rows to index

        def row(v):
            v = v[index]
            return float(v) if v.ndim == 0 else v

        return HypersurfacePointData(
            self.immersion[index], *(row(getattr(self, f.name)) for f in fields(self)[1:]))

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


# Row-wise products of a batch.  Each keeps the vector a one-row (or
# one-column) matrix, so numpy's matmul makes the same BLAS call for every
# row of a batch as for a single vector, and a batched row equals the
# single-point result bitwise; an (m, 6) @ (6, 6) product would instead be
# one matrix-matrix call that rounds differently.

def _vm(x, A):
    """Row vectors x (..., k) times matrices A (..., k, n)."""
    return (x[..., None, :] @ A)[..., 0, :]


def _mv(A, x):
    """Matrices A (..., n, k) times column vectors x (..., k)."""
    return (A @ x[..., None])[..., 0]


def _dot(x, y):
    """Inner products of the rows of x and y (..., k)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _g(x, y):
    """g(x, y) of frame vectors (..., 6), as the products x @ g @ y."""
    return _dot(_vm(x, get_tables().g), y)


def _rowwise(f, *vectors):
    """f(tables, *vectors) with each frame vector (..., 6) passed as a
    one-row matrix, for `frames.curvature_closed_form`, which multiplies its
    arguments by constant matrices."""
    return f(get_tables(), *(v[..., None, :] for v in vectors))[..., 0, :]


def _out(x):
    """A residual of a one-point view as a float; a batch's as its array."""
    return float(x) if np.ndim(x) == 0 else x


def _first_row(u, bad) -> list:
    """The first chart point of u (..., 5) where the mask bad (...) holds."""
    return np.asarray(u, dtype=float)[bad][0].tolist()


def _tangential(w: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Tangent part of frame vectors w (..., 6) at unit normals xi."""
    return w - g_inner(get_tables(), w, xi)[..., None] * xi


def _gram(T: np.ndarray) -> np.ndarray:
    t = get_tables()
    return T @ t.g @ np.swapaxes(T, -1, -2)


def _chart_data(M: Immersion, u) -> tuple:
    """Points p, q (..., 4) and pushforwards T (..., 5, 6) at the chart
    points u (..., 5), from one pushforward call; raises where the
    pushforward loses rank."""
    p, q, T = M.pushforward(u)
    low = np.linalg.eigvalsh(_gram(T))[..., 0] <= RANK_TOL
    if np.any(low):
        raise DegenerateImmersionError(f"pushforward rank below 5 at u={_first_row(u, low)}")
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


def analyze_points(M: Immersion, U, h: float = NORMAL_H,
                   ref_normal: Optional[np.ndarray] = None) -> HypersurfacePointData:
    """Full pointwise apparatus of the hypersurface at the chart points U
    (m, 5), as one batch of point data, from one chart call on their
    stencils of 11 points each: the point and the ends of its chart
    segments of half-length h along the five chart directions.

    The shape operator comes from the Weingarten relation A X = -(D_X xi)^T:
    the normals at the segment ends are aligned with the point's and
    differenced by `_covariant_fd` along each chart direction, and the
    chart weights take those derivatives to the orthonormal tangent frame.
    The normals are aligned with the frame vectors ref_normal ((6,) or
    (m, 6)) when given, and otherwise oriented by the trace rule.  The
    data's `u` is a read-only copy of U.  An immersion with per-row
    parameters takes one chart point per parameter row; U of another row
    count raises DomainError.
    """
    U = np.array(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != 5:
        raise DomainError(f"chart points must have shape (m, 5), got {U.shape}")
    U.flags.writeable = False
    t = get_tables()
    ends = _segments(U[:, None, :], np.eye(5), h).reshape(-1, 10, 5)
    p, q, T = _chart_data(M, np.concatenate([U[:, None, :], ends], axis=1))
    normals = _unit_normal(T)
    xi = normals[:, 0] if ref_normal is None else _aligned(normals[:, 0], ref_normal)
    push = T[:, 0]
    frame, W = _orthonormal_frame(push)
    # (D xi)^T along the five chart directions, then along the tangent frame
    values = _aligned(normals[:, 1:], xi[:, None]).reshape(-1, 5, 2, 6)
    chart_dxi = _covariant_fd((p[:, :1], q[:, :1]), xi[:, None],
                              (p[:, 1:].reshape(-1, 5, 2, 4), q[:, 1:].reshape(-1, 5, 2, 4)),
                              values, push, xi[:, None], h)
    A = -(W @ chart_dxi @ t.g @ np.swapaxes(frame, -1, -2))

    if ref_normal is None:
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
    a_coef = _g(pxi, xi)
    b_coef = _g(pxi, uvec)
    rem = pxi - a_coef[:, None] * xi - b_coef[:, None] * uvec
    c_coef = np.sqrt(np.maximum(_g(rem, rem), 0.0))

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


def analyze_point(M: Immersion, u, h: float = NORMAL_H,
                  ref_normal: Optional[np.ndarray] = None) -> HypersurfacePointData:
    """`analyze_points` at the one chart point u (5,), as a one-point view."""
    return analyze_points(M, np.asarray(u, dtype=float)[None], h, ref_normal)[0]


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


def cluster_eigenvalues(values, rel_tol: float = 1e-6,
                        abs_floor: float = 1e-9) -> list:
    """Group ascending eigenvalues into clusters of nearly equal values."""
    values = np.sort(np.asarray(values, dtype=float))
    starts = _cluster_starts(values, rel_tol, abs_floor)
    return [list(c) for c in np.split(values, np.flatnonzero(starts)[1:])]


@dataclass
class SpectralReport:
    """Shape-operator spectrum and distribution diagnostics.

    The report of a batch of point data carries the batch axis first, and
    `rep[i]` is the one-point report of row i (a batch for a slice).  The
    shapes and types below are those of a one-point report; in a batch the
    cluster sizes and means are (m, 5) arrays in cluster order, padded with
    zeros, and theta and theta_sine (m,) arrays, NaN where the row has no
    two-dimensional eigenspace.
    """

    eigenvalues: np.ndarray        # (5,) ascending
    multiplicities: tuple
    cluster_means: tuple
    trace: float
    mean_curvature: float
    dim_distribution: int          # 2 or 4
    theta: Optional[float]
    # sqrt(1 - theta^2), computed as |J X1 - g(J X1, X2) X2|_g from the same
    # eigenvectors; well conditioned at theta = 1 where the square root of
    # 1 - theta^2 is not
    theta_sine: Optional[float]

    def __getitem__(self, index) -> "SpectralReport":
        """Row `index` as a one-point report (a batch for a slice)."""
        rep = SpectralReport(*(getattr(self, f.name)[index] for f in fields(self)))
        if np.ndim(rep.trace):
            return rep
        mult = tuple(int(n) for n in rep.multiplicities if n)
        double = 2 in mult
        return SpectralReport(
            eigenvalues=rep.eigenvalues,
            multiplicities=mult,
            cluster_means=tuple(float(v) for v in rep.cluster_means[:len(mult)]),
            trace=float(rep.trace),
            mean_curvature=float(rep.mean_curvature),
            dim_distribution=int(rep.dim_distribution),
            theta=float(rep.theta) if double else None,
            theta_sine=float(rep.theta_sine) if double else None,
        )


def spectral_report(data: HypersurfacePointData, rel_tol: float = 1e-6,
                    abs_floor: float = 1e-9) -> SpectralReport:
    """The spectral report of the point data: one report with a batch axis
    for a batch, the one-point report for a one-point view."""
    rep = _spectra(data, rel_tol, abs_floor)
    return rep if np.ndim(rep.trace) else rep[()]


def _spectra(data: HypersurfacePointData, rel_tol: float = 1e-6,
             abs_floor: float = 1e-9) -> SpectralReport:
    """The spectral report in its array form, over the leading shape of the
    point data (() for a one-point view), from one `eigh` call.

    Cluster sums run left to right from 0.0, the order in which numpy sums
    a short row, and every product keeps each row's vectors one-row
    matrices, so each row equals the report of its one-point view bitwise.
    """
    t = get_tables()
    lead = data.shape.shape[:-2]  # the batch axis, () for a one-point view
    evals, evecs = np.linalg.eigh(data.shape.reshape(-1, 5, 5))
    rows, pos = np.arange(len(evals)), np.arange(5)
    starts = _cluster_starts(evals, rel_tol, abs_floor)
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
    frame = data.tangent_frame.reshape(-1, 5, 6)
    X = np.stack([_vm(evecs[:, :, k], frame) for k in pos], axis=1)
    x1, x2 = X[rows, first], X[rows, first + 1]
    theta = np.abs(_dot(_vm(x1, t.g), _mv(t.J, x2)))
    jx1 = _mv(t.J, x1)
    theta_sine = g_norm(t, jx1 - _dot(_vm(jx1, t.g), x2)[:, None] * x2)
    no_double = ~np.any(double, axis=-1)

    trace = np.sum(evals, axis=-1).reshape(lead)
    return SpectralReport(
        eigenvalues=evals.reshape(lead + (5,)),
        multiplicities=mult.reshape(lead + (5,)),
        cluster_means=means.reshape(lead + (5,)),
        trace=trace,
        mean_curvature=trace / 5.0,
        dim_distribution=np.where(np.asarray(data.c) <= DIM_TOL, 2, 4),
        theta=np.where(no_double, np.nan, theta).reshape(lead),
        theta_sine=np.where(no_double, np.nan, theta_sine).reshape(lead),
    )


_CLASS_TABLE = (
    (PLUS, 0.5, -SQRT3 / 2.0),
    (MINUS, 0.5, SQRT3 / 2.0),
    (REFLECT, -1.0, 0.0),
)


def classify_normal_action(data: HypersurfacePointData):
    """Which of the three product-structure actions the normal realizes.

    Reads the coefficients a, b, c of P xi from the point data.  Defined
    only when P xi lies in span(xi, U), that is when the canonical
    distribution spanned by xi, U and their images under P is
    2-dimensional.  A batch gives an (m,) array of class names, UNDEFINED
    on the rows where the class is not defined; a one-point view gives the
    name, and raises PreconditionError where it is not defined.
    """
    a, b, c = (np.asarray(v) for v in (data.a, data.b, data.c))
    conditions = [c > DIM_TOL] + [(np.abs(a - a0) <= CLASS_TOL) & (np.abs(b - b0) <= CLASS_TOL)
                                  for _, a0, b0 in _CLASS_TABLE]
    names = np.select(conditions, [UNDEFINED] + [name for name, _, _ in _CLASS_TABLE], OTHER)
    if names.ndim:
        return names
    if names == UNDEFINED:
        raise PreconditionError(
            "normal-action classes are defined only when P xi lies in span(xi, U)"
        )
    return str(names)


def normal_action_residual(data: HypersurfacePointData, name: str):
    """Distance of the point data's (a, b) from the named class, per row."""
    for cname, a0, b0 in _CLASS_TABLE:
        if cname == name:
            return _out(np.maximum(np.abs(data.a - a0), np.abs(data.b - b0)))
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
    """The residuals of `stencil_residuals`, one value per row of the
    directions (a float for a one-point view)."""

    transport: float
    gauss: float
    codazzi: float


def stencil_residuals(data: HypersurfacePointData, x5, y5, z5) -> StencilResiduals:
    """Residuals of the three finite-difference identities, per row of the
    directions x5, y5, z5 (..., 5):

    - transport of the structure vector, D_X U = phi A X - G(X, xi), from
      the central difference of U = -J xi along X of half-length
      NORMAL_H;
    - Gauss, R_ind(X, Y) Z = (R(X, Y) Z)^T + g(A Z, Y) A X - g(A Z, X) A Y;
    - Codazzi, (D_X A) Y - (D_Y A) X = -(R(X, Y) xi)^T;

    with the ambient curvature R from `frames.curvature_closed_form`.  The
    transport's two segment ends and the 16 fresh points of the nested
    stencil of step NESTED_H (`_nested_fd`) are evaluated in one chart call
    of 18 points a row, with one `_unit_normal` call, so a normal that is
    undefined at any of the 18 points raises DegenerateImmersionError.
    """
    t = get_tables()
    x5, y5, z5 = (np.asarray(v, dtype=float) for v in (x5, y5, z5))
    X, Y, Z = (data.from_components(v) for v in (x5, y5, z5))
    vels, nested = _nested_points(data, x5, y5)
    ends = _segments(data.u, vels[..., 0, :], NORMAL_H)
    p, q, T, xi = _charted(data, np.concatenate([ends, nested], axis=-2))

    dU = _covariant_fd((data.p, data.q), data.xi, (p[..., :2, :], q[..., :2, :]),
                       -(xi[..., :2, :] @ t.J.T), X, data.structure_vector, NORMAL_H)
    transport = dU - (data.apply_phi(data.apply_shape(X)) - tensor_G(t, X, data.xi))

    induced, dxi = _nested_fd(data, x5, y5, z5, vels,
                              (p[..., 2:, :], q[..., 2:, :], T[..., 2:, :, :], xi[..., 2:, :]))
    az = data.apply_shape(Z)
    gauss = induced - (data.tangential(_rowwise(curvature_closed_form, X, Y, Z))
                       + _g(az, Y)[..., None] * data.apply_shape(X)
                       - _g(az, X)[..., None] * data.apply_shape(Y))
    codazzi = -dxi + data.tangential(_rowwise(curvature_closed_form, X, Y, data.xi))
    return StencilResiduals(*(_out(g_norm(t, r)) for r in (transport, gauss, codazzi)))


# The three one-identity residuals below are each one field of
# `stencil_residuals`, so each charts its whole 18-point stencil; the
# program calls `stencil_residuals` itself, and these keep the names the
# benchmark's tracer spans.

def reeb_transport_residual(data: HypersurfacePointData, x5):
    """The transport residual of `stencil_residuals` along x5 (..., 5)."""
    return stencil_residuals(data, x5, x5, x5).transport


def codazzi_residual(data: HypersurfacePointData, x5, y5):
    """The Codazzi residual of `stencil_residuals` along x5, y5 (..., 5)."""
    return stencil_residuals(data, x5, y5, y5).codazzi


def gauss_residual(data: HypersurfacePointData, x5, y5, z5):
    """The Gauss residual of `stencil_residuals` along x5, y5, z5 (..., 5)."""
    return stencil_residuals(data, x5, y5, z5).gauss


def _charted(data: HypersurfacePointData, points) -> tuple:
    """Points p, q (..., n, 4), pushforwards T (..., n, 5, 6) and unit
    normals (..., n, 6), aligned with the data's normal, at the chart points
    (..., n, 5) near each row's point, from one chart call and one
    `_unit_normal` call."""
    p, q, T = _chart_data(data.immersion, points)
    return p, q, T, _aligned(_unit_normal(T), data.xi[..., None, :])


# the chart points (direction, prime, stencil slot) of the nested stencil
# that its chart call evaluates: all but the point itself, slot [d, 2, 0]
_FRESH = np.ones((2, 3, 3), dtype=bool)
_FRESH[:, 2, 0] = False


def _nested_points(data: HypersurfacePointData, x5, y5) -> tuple:
    """The chart velocities vels (..., 2, 5) of X and Y, given by their
    tangent-frame components x5, y5 (..., 5), and the 16 fresh chart points
    (..., 16, 5) of the nested stencil of step NESTED_H along them (see
    `_nested_fd`), in the order of `_FRESH`."""
    vels = np.stack([_vm(v, data.chart_weights) for v in (x5, y5)], axis=-2)
    u = data.u[..., None, None, :]
    primes = np.concatenate([_segments(u[..., 0, :], vels, NESTED_H),
                             np.broadcast_to(u, vels.shape[:-1] + (1, 5))], axis=-2)
    points = np.concatenate([primes[..., None, :],
                             _segments(primes, vels[..., ::-1, None, :], NESTED_H)], axis=-2)
    return vels, points[..., _FRESH, :]


def _on_stencil(data: HypersurfacePointData, fresh, own) -> np.ndarray:
    """An array (..., 2, 3, 3, ...) over the nested stencil, from its values
    at the fresh points (..., 16, ...) and the point's own value (..., ...)."""
    k = data.u.ndim - 1
    out = np.empty(fresh.shape[:k] + _FRESH.shape + fresh.shape[k + 1:])
    rows = (slice(None),) * k
    out[rows + (_FRESH,)] = fresh
    out[rows + (slice(None), 2, 0)] = np.expand_dims(own, k)
    return out


def _nested_fd(data: HypersurfacePointData, x5, y5, z5, vels, fresh: tuple) -> np.ndarray:
    """D_X D_Y F - D_Y D_X F (2, ..., 6) of two fields F along the
    chart-constant extensions of X and Y, given by their tangent-frame
    components x5, y5 (..., 5) and chart velocities vels (..., 2, 5): two
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
    (`_nested_points`, `_charted`).  Both fields go through one pair of
    `_covariant_fd` calls, stacked on a leading field axis.
    """
    p, q, T, xi = (_on_stencil(data, a, own) for a, own in
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


def hopf_identity_residual(data: HypersurfacePointData, x5, y5):
    """Residual of the pointwise identity tying A, phi and G on the
    structure-vector complement of a Hopf hypersurface, per row of the
    directions x5, y5 (..., 5)."""
    t = get_tables()
    bad = np.asarray(data.hopf_residual) > HOPF_TOL
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
    alpha = np.asarray(data.alpha)[..., None]
    px, py = _mv(t.P, X), _mv(t.P, Y)

    lhs = (1.0 / 6.0) * _g(data.apply_phi(X), Y) - (2.0 / 3.0) * (
        _g(px, xi) * _g(py, uvec) - _g(px, uvec) * _g(py, xi)
    )

    gxxi = tensor_G(t, X, xi)
    ax = data.apply_shape(X)
    rhs_vec = (
        alpha * gxxi - data.apply_shape(gxxi)
        + tensor_G(t, alpha * X - ax, xi)
        - alpha * (data.apply_shape(data.apply_phi(X)) + data.apply_phi(ax))
        + 2.0 * data.apply_shape(data.apply_phi(ax))
    )
    return _out(np.abs(lhs - _g(rhs_vec, Y)))


# ---------------------------------------------------------------------------
# moduli relations and leaf geometry of the round-sphere families
# ---------------------------------------------------------------------------

@dataclass
class ThetaConsistency:
    theta: float
    r_residual: float
    spectrum_residual: float
    product_residual: float


def theta_r_consistency(data: HypersurfacePointData) -> ThetaConsistency:
    """Consistency of the eigenspace invariant theta with the modulus r.

    Checks r = sqrt(3) theta / sqrt(1 + 2 theta^2), the closed forms
    (1 +/- sqrt(1 - theta^2)) / (2 sqrt(3) theta) for the absolute values
    of the double principal curvatures, and their exact product -1/12.
    sqrt(1 - theta^2) is the spectral report's `theta_sine`, so the closed
    forms keep full accuracy at r = 1, where theta = 1.  Each field holds
    one value per row of the data (a float for a one-point view), against
    the immersion's r of that row.
    """
    M = data.immersion
    if M.family not in THREE_CURVATURE_FAMILIES:
        raise PreconditionError("theta-r consistency applies to m1, m2, m3")
    r = M.params[0]
    rep = _spectra(data)
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
    doubles = rep.cluster_means[double].reshape(double.shape[:-1] + (2,))
    observed = np.sort(np.abs(doubles), axis=-1)
    spec_res = np.max(np.abs(observed - closed), axis=-1)

    prod_res = np.abs(doubles[..., 0] * doubles[..., 1] + 1.0 / 12.0)
    return ThetaConsistency(_out(theta), _out(r_res), _out(spec_res), _out(prod_res))


@dataclass
class LeafGeometry:
    sphere3_metric_residual: float     # factor pullback vs 4/3 of round
    sphere2_metric_residual: float     # factor pullback vs 4 r^2 / 3 of round
    sphere3_sectional: float           # finite-difference sectional curvature
    sphere2_curvature_residual: float  # (1 + 2 theta^2)/(4 theta^2) vs 3/(4 r^2)


def leaf_geometry(data: HypersurfacePointData) -> LeafGeometry:
    """Geometry of the two product-factor leaves through each chart point.

    The 3-sphere factor leaf carries 4/3 times its round metric, so its
    sectional curvature is 3/4; the value is also recomputed from the
    induced curvature by finite differences.  The 2-sphere factor leaf
    carries 4 r^2 / 3 times the round metric, so its curvature is
    3 / (4 r^2), which in terms of the eigenspace invariant theta reads
    (1 + 2 theta^2) / (4 theta^2).  Each field holds one value per row of
    the data (a float for a one-point view), against the immersion's r of
    that row.
    """
    M, u = data.immersion, data.u
    if M.family not in THREE_CURVATURE_FAMILIES:
        raise PreconditionError("leaf geometry applies to m1, m2, m3")
    t = get_tables()
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

    # orthonormal pair spanning two 3-sphere-factor directions
    comp = data.tangent_frame @ t.g @ np.swapaxes(data.push_coords, -1, -2)
    # a contiguous copy: BLAS sums a strided vector in another order
    c0 = np.ascontiguousarray(comp[..., :, 0])
    x5 = c0 / np.sqrt(_dot(c0, c0))[..., None]
    y5 = comp[..., :, 1] - _dot(comp[..., :, 1], x5)[..., None] * x5
    y5 = y5 / np.sqrt(_dot(y5, y5))[..., None]
    vels, nested = _nested_points(data, x5, y5)
    riem = _nested_fd(data, x5, y5, y5, vels, _charted(data, nested))[0]
    sec3 = _g(riem, data.from_components(x5))

    theta = _spectra(data).theta
    bad = np.isnan(theta)
    if np.any(bad):
        raise DegenerateImmersionError(
            f"no two-dimensional principal eigenspace at u={_first_row(u, bad)}")
    k2 = (1.0 + 2.0 * theta * theta) / (4.0 * theta * theta)
    res_k2 = np.abs(k2 - 3.0 / (4.0 * r * r))
    return LeafGeometry(_out(res3), _out(res2), _out(sec3), _out(res_k2))
