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

The pushforward's frame rows are closed forms in the cosines and sines of
the chart angles: xbar d_a x of the base 3-sphere in one block and ybar d_b y
of the second factor in the other, which the factor swap exchanges and the
conjugation twist mixes; the twist's point y xbar is the chart's one
quaternion product.

`analyze_points` produces the pointwise apparatus of a hypersurface at a
batch of chart points, as one `HypersurfacePointData` whose fields carry
the batch axis (`analyze_point` returns the batch of one row): the metric
normal xi, the structure vector U = -J xi, the induced almost contact
tensors, the shape operator and its spectrum.  Each family is a level set
F = level of a polynomial F on R^8 (the table is in `analyze_points`), so
the normal and the shape operator are closed forms, `_level_set`:
xi = g^-1 dF / |dF|_g and A = -Hess F / |dF|_g on the tangent space, with
dF and Hess F in frame coefficients from the Euclidean gradient and
Hessian of F, the flat derivatives of the frame fields and the connection
table.  The analysis charts its points alone, for their pushforwards and
tangent frames, and differences nothing.

The transport, Codazzi and Gauss residuals difference along the chart.
A field F = F^a B_a is held by its frame coefficients, and its ambient
covariant derivative splits as

    D_X F = X(F^a) B_a + F^a D_X B_a,

the derivative of the coefficients along X and the connection of the
frame, `frames.nabla`, the one table Gamma that `_level_set` also takes
its Hessians with.  Every such derivative goes through one step,
`_covariant_fd`: the central difference of a field's coefficients along a
chart segment, plus `frames.nabla` of the direction and the field's value
at the centre, minus the normal part; it reads no chart point.
`stencil_residuals` takes the three residuals together, from one chart
call and one `_level_set` normal computation on 20 points a row: the
transport's two segment ends and a nested stencil of two such steps,
`_nested_fd`, the point among its 18.  On the nested stencil two fields
are differenced at once: the chart-constant extension of Z (Gauss) and the
unit normal (Codazzi), whose inner step is -A Y by the Weingarten relation
A X = -(D_X xi)^T, so no shape operator is built away from the point
itself.  The Gauss field also gives the sectional value g(R_ind(X, Y) Z, X)
that the leaf-geometry check reads along its 3-sphere pair, the first two
tangent-frame vectors.

Everything downstream (spectra, residuals of the Gauss, Codazzi and
structure-vector transport identities) works in frame coordinates, where
the structure tensors are constant matrices.  Every result has one layout,
the batch: each residual returns one value per row of the point data, and
each evaluates its finite-difference stencils for all rows in one chart
call.  Its products are per row, so each row of a batch equals the
residual of that row alone, a batch of one, bitwise: numpy's `vecmat`,
`matvec` and `vecdot` take one dot product per output entry of each row,
the bilinear frame tensors and the metric pairing are per-row products
already, and `_rowwise` passes the vectors of
`frames.curvature_closed_form`, the one frame function that multiplies its
arguments by constant matrices, as one-row matrices.  The spectrum
(`spectral_report`, on plain arrays of shape operators and frames) and the
normal-action class take a batch the same way, the spectrum with one `eigh`
call for all rows; the theta-r relation and the leaf geometry read the
spectrum from the point data and the rows of `stencil_residuals` instead of
computing their own.  Normals are held, sign-aligned and differenced in
frame coefficients; the flat R^8 form appears only inside `_level_set`, for
the derivatives of F.

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
from functools import cached_property
from typing import Optional

import numpy as np

from . import quat as qt
from .errors import DegenerateImmersionError, DomainError, PreconditionError
from .frames import (
    _freeze,
    curvature_closed_form,
    g_inner,
    g_norm,
    get_tables,
    lower,
    nabla,
    tensor_G,
)
from .isometries import SWAP, TWIST

SQRT3 = math.sqrt(3.0)

RANK_TOL = 1e-6
TRACE_TIE_TOL = 1e-9
DIM_TOL = 1e-6
CLASS_TOL = 1e-6
HOPF_TOL = 1e-6
ORTHO_TOL = 1e-8

NORMAL_H = 1e-5  # central-difference step for the transport of the structure vector
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
    product: x = `_base_point` of u[0:3], and y the family's second factor
    at (u[..., 3], u[..., 4], *params), `_round_sphere` for m1-m3 and
    `_torus` for m4-m6.  A composed family takes these through the factor
    swap or the conjugation twist (SWAP or TWIST of `_ISOMETRY`).

    The family parameters `params` are floats, one value for every chart
    point, or read-only (m,) arrays, one value per row: then u has m rows
    along its first axis, (m, ..., 5), and each row's stencil is charted
    with its own parameters.  `M[index]` is the immersion of those rows:
    floats for one row, sub-arrays for a slice; an immersion with float
    parameters is its own row.
    """

    def __init__(self, family: str, params: tuple):
        self.family = family
        self.params = params
        self.rows = None if isinstance(params[0], float) else len(params[0])
        self._second_factor = (_round_sphere if family in THREE_CURVATURE_FAMILIES
                               else _torus)
        self._isometry = _ISOMETRY.get(family)

    def __getitem__(self, index) -> "Immersion":
        if self.rows is None:
            return self
        return Immersion(self.family, tuple(_parameter(x[index]) for x in self.params))

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
        T[..., a, :] holds the frame coefficients of the a-th chart direction:
        xbar d_a x (`_base_rows`) in the first block, ybar d_b y of the
        second factor in the second, 0 elsewhere; the swap exchanges the
        blocks.  The twist maps (x, y) to (xbar, y xbar) and the chart
        directions to (-rho_a, -rho_a), rho_a = (d_a x) xbar (`_twist_rows`),
        and (0, R(x) ybar d_b y), R(x) v = x v xbar (`_rotate`).  The row
        helpers write into their blocks of T.
        """
        u = np.asarray(u, dtype=float)
        cos, sin = np.cos(u[..., :3]), np.sin(u[..., :3])
        C, S = cos * cos - sin * sin, 2.0 * sin * cos  # cos 2u_a, sin 2u_a
        x = _base_point(cos, sin)
        T = np.zeros(u.shape[:-1] + (5, 6))
        # the factor swap exchanges the two factors' frame blocks
        swap = self._isometry == SWAP
        first, second = (slice(3, 6), slice(0, 3)) if swap else (slice(0, 3), slice(3, 6))
        y = self._second_factor(T[..., 3:, second], u[..., 3], u[..., 4], *self._row_params(u))
        if self._isometry == TWIST:
            _rotate(T[..., 3:, 3:], C, S)
            T[..., :3, 3:] = _twist_rows(T[..., :3, :3], C, S)
            xbar = qt.conj(x)
            return xbar, qt.mul(y, xbar), T
        _base_rows(T[..., :3, first], C, S)
        return (y, x, T) if swap else (x, y, T)


def _base_point(cos, sin):
    """x = e^{u0 i} e^{u1 j} e^{u2 k} (..., 4) from the cosines and sines
    (..., 3) of the chart angles u[..., 0:3]."""
    c0, c1, c2 = cos[..., 0], cos[..., 1], cos[..., 2]
    s0, s1, s2 = sin[..., 0], sin[..., 1], sin[..., 2]
    # e^{u0 i} e^{u1 j} = a + b i + c j + d k
    a, b, c, d = c0 * c1, s0 * c1, c0 * s1, s0 * s1
    x = np.empty(cos.shape[:-1] + (4,))
    x[..., 0] = a * c2 - d * s2
    x[..., 1] = b * c2 + c * s2
    x[..., 2] = c * c2 - b * s2
    x[..., 3] = a * s2 + d * c2
    return x


def _base_rows(out, C, S):
    """Write the frame rows xbar d_a x of the base chart into the zero block
    out (..., 3, 3), from C = cos 2u and S = sin 2u (..., 3): d_0 x = i x,
    d_1 x = e^{u0 i} j e^{u1 j} e^{u2 k} and d_2 x = x k give
    (C1 C2, -C1 S2, S1), (S2, C2, 0) and (0, 0, 1), independent of u0."""
    C1, C2, S1, S2 = C[..., 1], C[..., 2], S[..., 1], S[..., 2]
    out[..., 0, 0] = C1 * C2
    out[..., 0, 1] = -(C1 * S2)
    out[..., 0, 2] = S1
    out[..., 1, 0] = S2
    out[..., 1, 1] = C2
    out[..., 2, 2] = 1.0


def _twist_rows(out, C, S):
    """Write -rho_a, rho_a = (d_a x) xbar, into the zero block out
    (..., 3, 3) and return it: rho_a is (1, 0, 0), (0, C0, S0) and
    (S1, -C1 S0, C1 C0), with C = cos 2u and S = sin 2u (..., 3)."""
    C0, C1, S0, S1 = C[..., 0], C[..., 1], S[..., 0], S[..., 1]
    out[..., 0, 0] = -1.0
    out[..., 1, 1] = -C0
    out[..., 1, 2] = -S0
    out[..., 2, 0] = -S1
    out[..., 2, 1] = C1 * S0
    out[..., 2, 2] = -(C1 * C0)
    return out


def _rotate(out, C, S):
    """Replace the frame rows v of out (..., n, 3) by R(x) v, the rotation
    v |-> x v xbar of x = e^{u0 i} e^{u1 j} e^{u2 k}: R_i(2u0) R_j(2u1)
    R_k(2u2), applied one axis at a time, with C = cos 2u and S = sin 2u
    (..., 3)."""
    c0, c1, c2 = (C[..., None, a] for a in range(3))
    s0, s1, s2 = (S[..., None, a] for a in range(3))
    v0, v1, v2 = out[..., 0], out[..., 1], out[..., 2]
    v0, v1 = c2 * v0 - s2 * v1, s2 * v0 + c2 * v1
    v0, v2 = c1 * v0 + s1 * v2, c1 * v2 - s1 * v0
    v1, v2 = c0 * v1 - s0 * v2, s0 * v1 + c0 * v2
    out[..., 0], out[..., 1], out[..., 2] = v0, v1, v2


def _trailing(x, n: int):
    """A family parameter with n unit axes appended, to scale arrays with n
    more axes than the chart's leading ones; a float as it is."""
    return x if isinstance(x, float) else x[(...,) + (None,) * n]


def _round_sphere(out, psi, chi, r):
    """Second factor y = c + r n of m1, c = sqrt(1 - r^2), with n on the
    unit sphere of imaginaries at latitude psi and longitude chi.  Writes
    its frame rows ybar d_b y = r (c d_b n - r n x d_b n) into the zero
    block out (..., 2, 3) and returns y (..., 4); here
    n x d_psi n = (sin chi, -cos chi, 0) and n x d_chi n = cos psi d_psi n."""
    c = np.sqrt(np.maximum(1.0 - r * r, 0.0))
    cp, sp, cc, sc = np.cos(psi), np.sin(psi), np.cos(chi), np.sin(chi)
    y = np.empty(psi.shape + (4,))
    y[..., 0] = c
    y[..., 1] = r * (cp * cc)
    y[..., 2] = r * (cp * sc)
    y[..., 3] = r * sp
    csp, rsp, rcp = c * sp, r * sp, r * cp
    out[..., 0, 0] = -r * (csp * cc + r * sc)
    out[..., 0, 1] = r * (r * cc - csp * sc)
    out[..., 0, 2] = c * rcp
    out[..., 1, 0] = rcp * (rsp * cc - c * sc)
    out[..., 1, 1] = rcp * (c * cc + rsp * sc)
    out[..., 1, 2] = -(rcp * rcp)
    return y


def _torus(out, phi1, phi2, k, l):
    """Second factor y = k e^{i phi1} + l e^{i phi2} j of m4.  Writes its
    frame rows ybar d_b y, (k^2, kl sin delta, kl cos delta) and
    (-l^2, kl sin delta, kl cos delta) with delta = phi1 - phi2, into the
    zero block out (..., 2, 3) and returns y (..., 4)."""
    y = np.empty(phi1.shape + (4,))
    y[..., 0] = k * np.cos(phi1)
    y[..., 1] = k * np.sin(phi1)
    y[..., 2] = l * np.cos(phi2)
    y[..., 3] = l * np.sin(phi2)
    delta = phi1 - phi2
    out[..., 0, 0] = k * k
    out[..., 1, 0] = -(l * l)
    out[..., 0, 1] = out[..., 1, 1] = (k * l) * np.sin(delta)
    out[..., 0, 2] = out[..., 1, 2] = (k * l) * np.cos(delta)
    return y


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
    return Immersion(family, params)


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
    return np.minimum(np.abs(a - b).max(axis=-1),
                      np.abs(np.sort(-a, axis=-1) - b).max(axis=-1))


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

    The methods below map frame vectors (..., m, 6) or tangent-frame
    components (..., m, 5) whose last axis but one is the data's rows; a
    stack of k operands (k, m, ...) gives each slice's own call bitwise, so
    a residual forms its vectors' images in one call.
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
    # the spectrum of the shape operator (`spectral_report`): cluster sizes
    # and means in cluster order, padded with zeros; theta and theta_sine
    # NaN where the row has no two-dimensional eigenspace
    eigenvalues: np.ndarray      # (m, 5) ascending
    multiplicities: np.ndarray   # (m, 5) cluster sizes
    cluster_means: np.ndarray    # (m, 5)
    theta: np.ndarray            # (m,) |g(J X1, X2)| on the top double eigenspace
    # sqrt(1 - theta^2), computed as |J X1 - g(J X1, X2) X2|_g from the same
    # eigenvectors; well conditioned at theta = 1 where the square root of
    # 1 - theta^2 is not
    theta_sine: np.ndarray       # (m,)

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

    @cached_property
    def _lowered_frame(self) -> np.ndarray:
        """The tangent frames lowered, frame g (m, 5, 6), formed once a batch."""
        return self.tangent_frame @ get_tables().g

    def tangent_components(self, w6: np.ndarray) -> np.ndarray:
        return np.matvec(self._lowered_frame, w6)

    def from_components(self, x5) -> np.ndarray:
        return np.vecmat(x5, self.tangent_frame)

    def apply_shape(self, w6: np.ndarray) -> np.ndarray:
        shaped = np.vecmat(self.tangent_components(w6), self.shape)
        return np.vecmat(shaped, self.tangent_frame)

    def apply_phi(self, w6: np.ndarray) -> np.ndarray:
        return self.tangential(np.matvec(get_tables().J, w6))


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
    return T @ t.g @ T.swapaxes(-1, -2)


def _above_rank_tol(gram: np.ndarray) -> bool:
    """Whether every Gram matrix (..., 5, 5) has its smallest eigenvalue
    above RANK_TOL, up to rounding near RANK_TOL: one batched Cholesky
    factorization of gram - RANK_TOL I, which succeeds with a finite factor
    exactly when that shifted matrix is positive definite."""
    try:
        factor = np.linalg.cholesky(gram - RANK_TOL * _EYE5)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def _chart_data(M: Immersion, u) -> tuple:
    """Points p, q (..., 4), pushforwards T (..., 5, 6) and their Gram
    matrices T g T^T (..., 5, 5) at the chart points u (..., 5), from one
    pushforward call; raises where the pushforward loses rank.

    The rank test is `_above_rank_tol`; only where it fails do the
    eigenvalues of the Gram matrices name the first chart point whose
    smallest eigenvalue is at most RANK_TOL (a non-finite Gram matrix
    raises LinAlgError there)."""
    p, q, T = M.pushforward(u)
    gram = _gram(T)
    if not _above_rank_tol(gram):
        low = np.linalg.eigvalsh(gram)[..., 0] <= RANK_TOL
        if low.any():
            raise DegenerateImmersionError(
                f"pushforward rank below 5 at u={_first_row(u, low)}")
    return p, q, T, gram


def _orthonormal_frame(T: np.ndarray, gram: np.ndarray) -> tuple:
    """g-orthonormal tangent frames W T and chart weights W (..., 5, 5) of
    the pushforwards T, from their Gram matrices gram = T g T^T."""
    L = np.linalg.cholesky(gram)
    W = np.linalg.solve(L, np.broadcast_to(_EYE5, L.shape))
    return W @ T, W


def _second_factor_forms(isometry) -> tuple:
    """The first two coordinates y = (y0, y1) of the base family's second
    factor under the family's isometry, as forms on R^8 of z = (p, q):
    y_k = a_k . z + z S_k z / 2, returned as (a, S) of shapes (2, 8) and
    (2, 8, 8).  y is q itself (m1, m4) or p (the swaps), both linear, or
    w = q pbar (the twists), bilinear, with w_k the sum of p_i q_j
    (e_j conj(e_i))_k."""
    a, S = np.zeros((2, 8)), np.zeros((2, 8, 8))
    if isometry == TWIST:
        basis = np.eye(4)
        C = np.moveaxis(qt.mul(basis[None, :, :], qt.conj(basis)[:, None, :])[..., :2], -1, 0)
        S[:, :4, 4:] = C
        S[:, 4:, :4] = np.swapaxes(C, -1, -2)
    else:
        first = 0 if isometry == SWAP else 4
        a[(0, 1), (first, first + 1)] = 1.0
    return _freeze(a), _freeze(S)


# the level-set row (a, S, squares) of each family: F is y0 of its forms, or
# y0^2 + y1^2 where squares holds (m4-m6); the families of one isometry share
# its forms
_LEVEL_SETS = {family: (a, S, family in FIVE_CURVATURE_FAMILIES)
               for isometry, a, S in ((i, *_second_factor_forms(i)) for i in (None, SWAP, TWIST))
               for family in FAMILIES if _ISOMETRY.get(family) == isometry}
_E6 = _freeze(np.eye(6))  # the frame vectors B_a as coefficient rows
_EYE5 = _freeze(np.eye(5))
_PAIR = _freeze(np.array([[0], [1]]))  # offsets of an eigenspace pair's two columns
_SIGNS = _freeze(np.array([[1.0], [-1.0]]))  # the two ends of a chart segment
# p e_c = sign * p[index], row c for e_c = i, j, k: a signed permutation of p
_UNIT_INDEX = _freeze(np.array([[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]))
_UNIT_SIGN = _freeze(np.array([[-1.0, 1.0, 1.0, -1.0],
                               [-1.0, -1.0, 1.0, 1.0],
                               [-1.0, 1.0, -1.0, 1.0]]))


def _frame_rows(p, q) -> np.ndarray:
    """The frame vectors B_a (..., 6, 8) at the points (p, q) (..., 4) as
    vectors of R^8: (p e_c, 0) and then (0, q e_c), each a signed
    permutation of p or q."""
    b = np.zeros(p.shape[:-1] + (6, 8))
    b[..., :3, :4] = p[..., _UNIT_INDEX] * _UNIT_SIGN
    b[..., 3:, 4:] = q[..., _UNIT_INDEX] * _UNIT_SIGN
    return b


def _level_set(level: tuple, p, q, hessian: bool = False):
    """The unit normals xi = g^-1 dF / |dF|_g (..., 6) of the level set of F
    at the points (p, q) (..., 4) of it; with hessian, also
    -Hess F / |dF|_g (..., 6, 6) in the frame, whose restriction to the
    tangent space is the shape operator of xi.

    F is given by its level-set row `level` = (a, S, squares), a family's
    row of `_LEVEL_SETS` or any other: the forms y_k = a_k . z + z S_k z / 2
    of z = (p, q), with a (n, 8) and S (n, 8, 8), and F = y0, or the sum of
    the y_k^2 where squares holds (y0^2 + y1^2 for m4-m6).  The derivatives
    of y are closed forms: dy(B_a) = grad y . b_a with b_a = (p e_a, 0) or
    (0, q e_a), the rows of `_frame_rows`, built once a call;
    B_a B_b y = S(b_a, b_b) + grad y . d_{b_a} b_b with d_{E_a} E_b =
    (p e_a e_b, 0), d_{F_a} F_b = (0, q e_a e_b) and the mixed derivatives 0,
    and e_a e_b = -delta_ab + eps_abc e_c, so that grad y . d_{b_a} b_b =
    -delta_ab rho + (C_ab^c / 2) dy(B_c), with rho = <p, grad_p y> or
    <q, grad_q y> and C the bracket table; and
    Hess y = B B y - Gamma dy.  For a sum of squares the factor 2 of every
    derivative cancels in xi and in the shape operator, so they are taken
    of F / 2: dF = sum y_k dy_k and Hess F = sum (y_k Hess y_k + dy_k dy_k).
    Every product keeps each point's vectors and matrices its own, so each
    point's result does not depend on the batch it is in, bitwise.
    """
    t = get_tables()
    a, S, squares = level
    z = np.concatenate([p, q], axis=-1)[..., None, :]
    grad = a + np.matvec(S, z)
    b = _frame_rows(p, q)
    dy = grad @ b.swapaxes(-1, -2)  # (..., n, 6)
    if squares:
        y = np.vecdot(0.5 * (a + grad), z)
        dF = np.vecmat(y, dy)
    else:
        dF = dy[..., 0, :]
    lowered = np.vecmat(dF, t.g_inv)
    length = g_norm(t, lowered)[..., None]
    xi = lowered / length
    if not hessian:
        return xi
    # <p, grad_p y_k> and <q, grad_q y_k> as one row dot of the two blocks
    blocks = grad.shape[:-1] + (2, 4)
    rho = np.vecdot(grad.reshape(blocks), z.reshape(z.shape[:-1] + (2, 4)))
    rho = rho.repeat(3, axis=-1)[..., None] * _E6
    c_gamma = (0.5 * t.bracket - t.gamma).reshape(36, 6)
    b = b[..., None, :, :]
    hess = (b @ S @ b.swapaxes(-1, -2) - rho
            + np.matvec(c_gamma, dy).reshape(dy.shape[:-1] + (6, 6)))
    if squares:
        summed = np.vecmat(y, hess.reshape(dy.shape[:-1] + (36,)))
        hess = summed.reshape(dy.shape[:-2] + (6, 6)) + dy.swapaxes(-1, -2) @ dy
    else:
        hess = hess[..., 0, :, :]
    return xi, -hess / length[..., None]


def _aligned(x, ref):
    """Frame vectors x (..., 6), negated where they point away from ref."""
    return np.where((x * ref).sum(axis=-1, keepdims=True) < 0.0, -x, x)


def analyze_points(M: Immersion, U) -> HypersurfacePointData:
    """Full pointwise apparatus of the hypersurface at the chart points U
    (m, 5), as one batch of point data, from one chart call on the m points
    themselves, for their pushforwards, tangent frames and chart weights.

    The normal and the shape operator are closed forms of the family's
    level set F = level (`_level_set`):

        family  F                         level
        m1      Re q                      sqrt(1 - r^2)
        m2      Re p                      sqrt(1 - r^2)
        m3      <p, q> = Re(q pbar)       sqrt(1 - r^2)
        m4      q0^2 + q1^2               k^2
        m5      p0^2 + p1^2               k^2
        m6      w0^2 + w1^2, w = q pbar   k^2

    xi = g^-1 dF / |dF|_g, and A = -frame Hess F frame^T / |dF|_g on the
    g-orthonormal tangent frame, with Hess F taken with the nearly Kaehler
    connection; no chart direction is differenced.  The normals are
    oriented by the trace rule, and the spectrum is `spectral_report` of
    the symmetrized A.  The data's `u` is a read-only copy of U.  An
    immersion with per-row parameters takes one chart point per parameter
    row; U of another row count raises DomainError.
    """
    U = np.array(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != 5:
        raise DomainError(f"chart points must have shape (m, 5), got {U.shape}")
    U.flags.writeable = False
    t = get_tables()
    p, q, push, gram = _chart_data(M, U)
    frame, W = _orthonormal_frame(push, gram)
    xi, weingarten = _level_set(_LEVEL_SETS[M.family], p, q, hessian=True)
    frame_t = frame.swapaxes(-1, -2)
    A = frame @ weingarten @ frame_t

    tr = A.trace(axis1=-2, axis2=-1)
    lead = xi[np.arange(len(xi)), (np.abs(xi) > TRACE_TIE_TOL).argmax(axis=-1)]
    flip = np.where(np.abs(tr) > TRACE_TIE_TOL, tr < 0.0, lead < 0.0)
    xi = np.where(flip[:, None], -xi, xi)
    A = np.where(flip[:, None, None], -A, A)

    At = A.swapaxes(-1, -2)
    symmetry = np.abs(A - At).max(axis=(-2, -1))
    A = 0.5 * (A + At)

    uvec = -np.matvec(t.J, xi)
    eta = np.matvec(frame @ t.g, uvec)
    phi_rows = (_tangential(frame @ t.J.T, xi[:, None, :]) @ t.g
                @ frame_t)

    au = np.vecmat(eta, A)
    alpha = np.vecdot(au, eta)
    off = au - alpha[:, None] * eta
    hopf_residual = np.sqrt(np.vecdot(off, off))

    pxi = np.matvec(t.P, xi)
    pxi_lowered = lower(t, pxi)  # for both pairings, as g_inner lowers its first vector
    a_coef = np.vecdot(pxi_lowered, xi)
    b_coef = np.vecdot(pxi_lowered, uvec)
    rem = pxi - a_coef[:, None] * xi - b_coef[:, None] * uvec
    c_coef = g_norm(t, rem)
    evals, mult, means, theta, theta_sine = spectral_report(A, frame)

    return HypersurfacePointData(
        immersion=M,
        u=U,
        p=p,
        q=q,
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
        eigenvalues=evals,
        multiplicities=mult,
        cluster_means=means,
        theta=theta,
        theta_sine=theta_sine,
    )


def analyze_point(M: Immersion, u) -> HypersurfacePointData:
    """`analyze_points` at the one chart point u (5,), as a batch of one row."""
    return analyze_points(M, np.asarray(u)[None])


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
    threshold = np.maximum(rel_tol * np.abs(values).max(axis=-1), abs_floor)
    joins = values[..., 1:] - values[..., :-1] <= threshold[..., None]
    return np.concatenate([np.ones(values.shape[:-1] + (1,), dtype=bool), ~joins],
                          axis=-1)


def cluster_sizes(values: np.ndarray) -> np.ndarray:
    """The cluster sizes (..., n) of each row of ascending values (..., n) at
    the default tolerances, in cluster order and padded with zeros."""
    starts = _cluster_starts(values, CLUSTER_REL_TOL, CLUSTER_ABS_FLOOR)
    labels = starts.cumsum(axis=-1) - 1
    return np.count_nonzero(labels[..., None, :] == np.arange(starts.shape[-1])[:, None],
                            axis=-1)


def spectral_report(shape: np.ndarray, frame: np.ndarray) -> tuple:
    """The spectrum fields of the point data (eigenvalues, multiplicities,
    cluster_means, theta, theta_sine) of the shape operators shape
    (m, 5, 5) in the tangent frames frame (m, 5, 6), from one `eigh` call.
    Each cluster sums left to right, the order in which numpy sums a short
    row, and every product is a row-wise gufunc, so each row equals the
    spectrum of that row alone bitwise."""
    t = get_tables()
    evals, evecs = np.linalg.eigh(shape)
    rows = np.arange(len(evals))
    mult = cluster_sizes(evals)
    ends = mult.cumsum(axis=-1)

    # each cluster's sum over the row-major values, from its opening
    real = mult > 0
    openings = (ends - mult + 5 * rows[:, None])[real]
    means = np.zeros_like(evals)
    means[real] = np.add.reduceat(evals.ravel(), openings) / mult[real]

    # invariant |g(J X1, X2)| of the top two-dimensional eigenspace, from
    # the pair of eigenvector columns it starts at
    double = mult == 2
    first = ends[rows, 4 - double[:, ::-1].argmax(axis=-1)] - 2
    x12 = np.vecmat(evecs[rows, :, first + _PAIR], frame)
    x1, x2 = x12
    jx1, jx2 = np.matvec(t.J, x12)
    theta = np.abs(np.vecdot(lower(t, x1), jx2))
    theta_sine = g_norm(t, jx1 - np.vecdot(lower(t, jx1), x2)[:, None] * x2)
    no_double = ~double.any(axis=-1)
    return (evals, mult, means, np.where(no_double, np.nan, theta),
            np.where(no_double, np.nan, theta_sine))


_CLASS_TABLE = {
    PLUS: (0.5, -SQRT3 / 2.0),
    MINUS: (0.5, SQRT3 / 2.0),
    REFLECT: (-1.0, 0.0),
}


def classify_normal_action(data: HypersurfacePointData) -> np.ndarray:
    """Which of the three product-structure actions the normal realizes,
    as an (m,) array of class names.

    Reads the coefficients a, b, c of P xi from the point data.  A class is
    defined only when P xi lies in span(xi, U), that is when the canonical
    distribution spanned by xi, U and their images under P is
    2-dimensional; the rows where it is not are UNDEFINED.
    """
    conditions = [data.c > DIM_TOL] + [normal_action_residual(data, name) <= CLASS_TOL
                                       for name in _CLASS_TABLE]
    return np.select(conditions, [UNDEFINED, *_CLASS_TABLE], OTHER)


def normal_action_residual(data: HypersurfacePointData, name: str) -> np.ndarray:
    """Distance of the point data's (a, b) from the named class, per row."""
    if name not in _CLASS_TABLE:
        raise DomainError(f"unknown class {name!r}")
    a0, b0 = _CLASS_TABLE[name]
    return np.maximum(np.abs(data.a - a0), np.abs(data.b - b0))


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

def _segments(u, vels, h: float) -> np.ndarray:
    """The ends u + h vel and u - h vel (..., 2, 5) of the chart segments
    through the chart points u along the chart velocities vels (..., 5),
    formed as u + (h vel) s for the signs s = 1, -1, which is bitwise the
    sum and the difference."""
    return u[..., None, :] + (h * vels)[..., None, :] * _SIGNS


def _covariant_fd(xi, values, x6, value, h: float) -> np.ndarray:
    """Induced derivative D_X F (..., 6) of a field F with unit normals xi
    at the centres of chart segments of half-length h along X = x6, from
    its frame coefficients values (..., 2, 6) at the segment ends and value
    at the centres: D_X (F^a B_a) = X(F^a) B_a + F^a D_X B_a, that is the
    central difference of the coefficients plus the connection
    `frames.nabla` of X and the value, minus the normal part.  Broadcasts."""
    d = (values[..., 0, :] - values[..., 1, :]) / (2.0 * h)
    return _tangential(d + nabla(get_tables(), x6, value), xi)


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
    segment ends and the 18 points of the nested stencil of step NESTED_H
    (`_nested_fd`), the point itself among them, are evaluated in one chart
    call of 20 points a row, with one `_level_set` call for their normals,
    so a pushforward that loses rank at any of the 20 points raises
    DegenerateImmersionError.

    A direction may also be one (5,) vector for every row.  The three are
    broadcast to the rows and stacked, so that their frame vectors X, Y and
    Z, their chart velocities, their images under A, both curvature terms
    and the three norms each take one call.
    """
    t = get_tables()
    directions = _directions(data, x5, y5, z5)
    XYZ = data.from_components(directions)
    X, Y, Z = XYZ
    chart_vels = np.vecmat(directions, data.chart_weights)
    vels = chart_vels[:2].swapaxes(0, 1)  # (m, 2, 5), X's and Y's
    ends = _segments(data.u, chart_vels[0], NORMAL_H)
    nested = _nested_points(data.u, vels)
    p, q, T, _ = _chart_data(data.immersion, np.concatenate([ends, nested], axis=-2))
    xi = _aligned(_level_set(_LEVEL_SETS[data.immersion.family], p, q), data.xi[..., None, :])

    AX, AY, AZ = data.apply_shape(XYZ)
    dU = _covariant_fd(data.xi, -(xi[..., :2, :] @ t.J.T), X, data.structure_vector, NORMAL_H)
    transport = dU - (data.apply_phi(AX) - tensor_G(t, X, data.xi))

    induced, dxi = _nested_fd(vels, chart_vels[2], XYZ[:2].swapaxes(0, 1),
                              (T[..., 2:, :, :], xi[..., 2:, :]))
    # R(X, Y) Z for Gauss and R(X, Y) xi for Codazzi, in one call
    rz, rxi = data.tangential(_rowwise(curvature_closed_form, np.array([X, X]),
                                       np.array([Y, Y]), np.array([Z, data.xi])))
    azy, azx = g_inner(t, AZ, XYZ[1::-1])
    gauss = induced - (rz + azy[..., None] * AX - azx[..., None] * AY)
    codazzi = -dxi + rxi
    return StencilResiduals(*g_norm(t, np.array([transport, gauss, codazzi])),
                            g_inner(t, induced, X))


def _directions(data: HypersurfacePointData, *vectors) -> np.ndarray:
    """The k tangent-frame component vectors, each (m, 5) or one (5,) for
    every row, broadcast to the data's m rows and stacked, (k, m, 5)."""
    out = np.empty((len(vectors), len(data), 5))
    for i, v in enumerate(vectors):
        out[i] = v
    return out


# The three one-identity residuals below are each one field of
# `stencil_residuals`, so each charts its whole 20-point stencil; the
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


def _nested_points(u, vels) -> np.ndarray:
    """The 18 chart points (m, 18, 5) of the nested stencil of step
    NESTED_H through the chart points u (m, 5) along the chart velocities
    vels (m, 2, 5) of X and Y (see `_nested_fd`), in (direction, prime,
    slot) order."""
    u = u[..., None, None, :]
    primes = np.concatenate([_segments(u[..., 0, :], vels, NESTED_H),
                             np.broadcast_to(u, vels.shape[:-1] + (1, 5))], axis=-2)
    points = np.concatenate([primes[..., None, :],
                             _segments(primes, vels[..., ::-1, None, :], NESTED_H)], axis=-2)
    return points.reshape(len(points), 18, 5)


def _nested_fd(vels, zvel, XY, charted: tuple) -> np.ndarray:
    """D_X D_Y F - D_Y D_X F (2, m, 6) of two fields F along the
    chart-constant extensions of X and Y, given by their frame vectors XY
    (m, 2, 6) and chart velocities vels (m, 2, 5): two stacked central
    differences of step NESTED_H.  The extensions commute, so this is
    R(X, Y) F of the induced connection for a tangent field.  Field 0 is the
    chart-constant extension of Z, of chart velocity zvel (m, 5), which
    gives R_ind(X, Y) Z; field 1 the unit normal, whose inner steps give
    (D_Y xi)^T = -A Y at the primes along X (and -A X along Y), so that it
    gives -((D_X A) Y - (D_Y A) X) with no shape operator built away from
    the point itself.

    The inner derivatives along Y (and X) are taken in frame coefficients at
    the point and at its two neighbours along X (and Y), the primes: six
    primes with three chart points each per row, indexed (direction, prime,
    slot) with slot 0 the prime itself, and prime 2 of either direction the
    point itself.  charted = (T, xi) holds the pushforwards and normals of
    the 18 points (m, 18, ...) of `_nested_points`, in that order, with the
    normals aligned with the point's; the pushforwards give the inner
    directions and the Z field at each prime.  Both fields go through one
    pair of `_covariant_fd` calls, stacked on a leading field axis: the
    inner differences their frame coefficients, the outer those of the
    inner derivatives.
    """
    T, xi = (a.reshape(len(a), 2, 3, 3, *a.shape[2:]) for a in charted)
    values = np.array([np.vecmat(zvel[..., None, None, None, :], T), xi])
    inner_vels = vels[..., ::-1, None, :]
    inner = _covariant_fd(xi[..., 0, :], values[..., 1:, :],
                          np.vecmat(inner_vels, T[..., 0, :, :]), values[..., 0, :], NESTED_H)
    # the outer differences along X and Y, centred at prime 2, the point itself
    outer = _covariant_fd(xi[..., 2, 0, :], inner[..., :2, :], XY, inner[..., 2, :], NESTED_H)
    return outer[..., 0, :] - outer[..., 1, :]


def hopf_identity_residual(data: HypersurfacePointData, x5, y5) -> np.ndarray:
    """Residual of the pointwise identity tying A, phi and G on the
    structure-vector complement of a Hopf hypersurface, per row of the
    directions x5, y5 (m, 5), or one (5,) direction for every row.  X and
    Y, then G(X, xi) and G(alpha X - A X, xi), then phi X and phi A X, then
    A G(X, xi), A phi X and A phi A X each take one stacked call, and each
    is formed once."""
    t = get_tables()
    bad = data.hopf_residual > HOPF_TOL
    if bad.any():
        raise PreconditionError(
            f"point fails the Hopf condition at u={_first_row(data.u, bad)}")
    directions = _directions(data, x5, y5)
    bad = (np.abs(np.vecdot(directions, data.eta)) > ORTHO_TOL).any(axis=0)
    if bad.any():
        raise PreconditionError("arguments must be orthogonal to the structure "
                                f"vector at u={_first_row(data.u, bad)}")

    XY = data.from_components(directions)
    X, Y = XY
    xi, uvec = data.xi, data.structure_vector
    alpha = data.alpha[..., None]
    px, py = lower(t, np.matvec(t.P, XY))  # P X and P Y, lowered once for their pairings

    ax = data.apply_shape(X)
    gxxi, gaxxi = tensor_G(t, np.array([X, alpha * X - ax]), xi)
    phix, phiax = data.apply_phi(np.array([X, ax]))
    agxxi, aphix, aphiax = data.apply_shape(np.array([gxxi, phix, phiax]))
    lhs = (1.0 / 6.0) * g_inner(t, phix, Y) - (2.0 / 3.0) * (
        np.vecdot(px, xi) * np.vecdot(py, uvec) - np.vecdot(px, uvec) * np.vecdot(py, xi)
    )
    rhs_vec = (
        alpha * gxxi - agxxi
        + gaxxi
        - alpha * (aphix + phiax)
        + 2.0 * aphiax
    )
    return np.abs(lhs - g_inner(t, rhs_vec, Y))


# ---------------------------------------------------------------------------
# moduli relations and leaf geometry of the round-sphere families
# ---------------------------------------------------------------------------

@dataclass
class ThetaConsistency:
    r_residual: np.ndarray
    spectrum_residual: np.ndarray
    product_residual: np.ndarray


def theta_r_consistency(data: HypersurfacePointData) -> ThetaConsistency:
    """Consistency of the eigenspace invariant theta with the modulus r.

    Checks r = sqrt(3) theta / sqrt(1 + 2 theta^2), the closed forms
    (1 +/- sqrt(1 - theta^2)) / (2 sqrt(3) theta) for the absolute values
    of the double principal curvatures, and their exact product -1/12.
    The spectrum is read from the data; sqrt(1 - theta^2) is its
    `theta_sine`, so the closed forms keep full accuracy at r = 1, where
    theta = 1.  Each field holds one value per row of the data, against the
    immersion's r of that row.
    """
    M = data.immersion
    if M.family not in THREE_CURVATURE_FAMILIES:
        raise PreconditionError("theta-r consistency applies to m1, m2, m3")
    r = M.params[0]
    double = data.multiplicities == 2
    bad = np.count_nonzero(double, axis=-1) != 2
    if bad.any():
        raise DegenerateImmersionError(
            f"no two-dimensional principal eigenspaces at u={_first_row(data.u, bad)}")
    theta = data.theta
    r_res = np.abs(r - SQRT3 * theta / np.sqrt(1.0 + 2.0 * theta * theta))

    s = data.theta_sine
    scale = 2.0 * SQRT3 * theta
    closed = np.sort(np.stack([(1.0 + s) / scale, (1.0 - s) / scale], axis=-1), axis=-1)
    doubles = data.cluster_means[double].reshape(-1, 2)
    observed = np.sort(np.abs(doubles), axis=-1)
    spec_res = np.abs(observed - closed).max(axis=-1)

    prod_res = np.abs(doubles[..., 0] * doubles[..., 1] + 1.0 / 12.0)
    return ThetaConsistency(r_res, spec_res, prod_res)


@dataclass
class LeafGeometry:
    sphere3_metric_residual: np.ndarray     # factor pullback vs 4/3 of round
    sphere2_metric_residual: np.ndarray     # factor pullback vs 4 r^2 / 3 of round
    sphere2_curvature_residual: np.ndarray  # (1 + 2 theta^2)/(4 theta^2) vs 3/(4 r^2)


def leaf_geometry(data: HypersurfacePointData) -> LeafGeometry:
    """Geometry of the two product-factor leaves through each chart point.

    The 3-sphere factor leaf carries 4/3 times its round metric, so its
    sectional curvature is 3/4; that value is the `StencilResiduals`
    field `sectional` of the same rows along X = e0, Y = Z = e1, which the
    caller reads: the frame is the Gram-Schmidt of the chart directions, so
    its first two vectors span the leaf's.  The 2-sphere factor leaf
    carries 4 r^2 / 3 times the round metric, so its curvature is
    3 / (4 r^2), which in terms of the data's eigenspace invariant theta
    reads (1 + 2 theta^2) / (4 theta^2).  Each field holds one value per row
    of the data, against the immersion's r of that row.
    """
    M, u = data.immersion, data.u
    if M.family not in THREE_CURVATURE_FAMILIES:
        raise PreconditionError("leaf geometry applies to m1, m2, m3")
    r = M.params[0]
    gram = _gram(data.push_coords)

    # the round metrics in the base chart's coordinates, [[1, 0, sin 2u1],
    # [0, 1, 0], [sin 2u1, 0, 1]] and diag(1, cos^2 u3); the induced gram
    # is unchanged under the ambient isometries of m2 and m3
    round3 = np.zeros(u.shape[:-1] + (3, 3))
    round3[..., (0, 1, 2), (0, 1, 2)] = 1.0
    round3[..., 0, 2] = round3[..., 2, 0] = np.sin(2.0 * u[..., 1])
    res3 = np.abs(gram[..., :3, :3] - (4.0 / 3.0) * round3).max(axis=(-2, -1))
    round2 = np.zeros(u.shape[:-1] + (2, 2))
    round2[..., 0, 0] = 1.0
    round2[..., 1, 1] = np.cos(u[..., 3]) ** 2
    r2 = _trailing(r, 2)
    res2 = np.abs(gram[..., 3:, 3:] - (4.0 / 3.0) * r2 * r2 * round2).max(axis=(-2, -1))

    theta = data.theta
    bad = np.isnan(theta)
    if bad.any():
        raise DegenerateImmersionError(
            f"no two-dimensional principal eigenspace at u={_first_row(u, bad)}")
    k2 = (1.0 + 2.0 * theta * theta) / (4.0 * theta * theta)
    res_k2 = np.abs(k2 - 3.0 / (4.0 * r * r))
    return LeafGeometry(res3, res2, res_k2)
