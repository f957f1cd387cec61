"""Constant-coefficient tensor tables in the global left-invariant frame.

The frame on the product of two unit 3-spheres is

    E_i = (p e_i, 0),   F_i = (0, q e_i),   e_1 = i, e_2 = j, e_3 = k,

ordered E_1, E_2, E_3, F_1, F_2, F_3; a FrameVector is its coefficient
6-vector.  In this frame every structure tensor has constant coefficients:

    g(E_i, E_j) = g(F_i, F_j) = 4/3 delta_ij,   g(E_i, F_j) = -2/3 delta_ij
    J E_i = -(E_i + 2 F_i)/sqrt(3),             J F_i = (2 E_i + F_i)/sqrt(3)
    P E_i = F_i,  P F_i = E_i,                  Q = diag(-1, -1, -1, 1, 1, 1)

and Lie brackets reduce to structure constants, [E_u, E_v] = E_{2 u x v},
[F_u, F_v] = F_{2 u x v}, [E, F] = 0.  Because all frame metric products
are constant, the Koszul formula collapses to

    2 g(D_X Y, Z) = g([X,Y], Z) - g([X,Z], Y) - g([Y,Z], X)

which is solved exactly, once, for the connection coefficients.  The
J-derivative tensor G(X, Y) = (D_X J) Y and the full curvature tensor then
come out as finite contractions with no numerical differentiation.

The bilinear tensors, the connection D_X Y, G(X, Y) and the connection gap
below, are evaluated as staged per-row products (`_bilinear`): x (x) y as
a (..., 36) row times the table reshaped to (36, 6), one `np.vecmat`, so
a batched row equals its single-row call bitwise.  A stack of tables takes
one outer product for all of them, each (table, row) pair still its own
product.  The gap has a table of its own, composed once from G, P and J
in `build_tables`; `curvature` stages its contraction the same way
through a (36, 36) table.

The metric pairing has one definition, `g_inner`: lower x to x^flat = x g
(`lower`, a row-wise `np.vecmat`), then take the row dot with y
(`np.vecdot`), so it too is bitwise the same batched and row by row.
Where several pairings share one vector, that vector is lowered once and
each pairing is a row dot with it (`curvature_closed_form` lowers z for
its eight pairings against z), which is bitwise `g_inner` with the shared
vector first.

The one computation here that leaves the frame algebra is
`euclidean_connection`: for a field with constant frame coefficients the
Levi-Civita connection of the ordinary product round metric equals the flat
R^8 derivative projected back to the tangent space, which is again exact.
It provides an independent oracle for the relation

    nablaE_X Y = D_X Y + (J G(X, PY) + J G(Y, PX)) / 2

between the two connections.  The table `gap` is that gap, and it serves
the structure suite's `flat-connection-relation` check alone
(`connection_relation_residual`): the hypersurface apparatus differences
frame coefficients and adds `nabla`, with no flat derivative to correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quat as qt
from .pointwise import TangentVector, project_components

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class StructureTables:
    """Immutable constant tensors of the frame calculus.

    Index convention: operators act on coefficient columns, so
    (J x)_c = sum_a J[c, a] x_a.  Trilinear tables are stored as
    T[a, b, c] with T(B_a, B_b) = sum_c T[a, b, c] B_c, and the curvature
    table as R[a, b, c, d] with R(B_a, B_b) B_c = sum_d R[a, b, c, d] B_d.
    """

    g: np.ndarray        # (6, 6) metric
    g_inv: np.ndarray    # (6, 6)
    J: np.ndarray        # (6, 6) almost complex structure
    P: np.ndarray        # (6, 6) almost product structure
    Q: np.ndarray        # (6, 6) factor involution (-U, V)
    bracket: np.ndarray  # (6, 6, 6) Lie structure constants
    gamma: np.ndarray    # (6, 6, 6) connection coefficients
    G: np.ndarray        # (6, 6, 6) J-derivative tensor
    R: np.ndarray        # (6, 6, 6, 6) curvature tensor
    gap: np.ndarray      # (6, 6, 6) connection gap, composed from G, P and J


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_tables() -> StructureTables:
    """Construct every constant table from the frame reduction."""
    eye3 = np.eye(3)

    g = np.zeros((6, 6))
    g[:3, :3] = (4.0 / 3.0) * eye3
    g[3:, 3:] = (4.0 / 3.0) * eye3
    g[:3, 3:] = -(2.0 / 3.0) * eye3
    g[3:, :3] = -(2.0 / 3.0) * eye3

    J = np.zeros((6, 6))
    J[:3, :3] = -eye3 / SQRT3
    J[3:, :3] = -2.0 * eye3 / SQRT3
    J[:3, 3:] = 2.0 * eye3 / SQRT3
    J[3:, 3:] = eye3 / SQRT3

    P = np.zeros((6, 6))
    P[:3, 3:] = eye3
    P[3:, :3] = eye3

    Q = np.diag([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])

    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    C = np.zeros((6, 6, 6))
    C[:3, :3, :3] = 2.0 * eps
    C[3:, 3:, 3:] = 2.0 * eps

    # reduced Koszul formula; rhs[a, b, c] = g(D_{B_a} B_b, B_c)
    t1 = np.einsum("abe,ec->abc", C, g)
    t2 = np.einsum("ace,eb->abc", C, g)
    t3 = np.einsum("bce,ea->abc", C, g)
    rhs = 0.5 * (t1 - t2 - t3)
    g_inv = np.linalg.inv(g)
    gamma = np.einsum("abd,dc->abc", rhs, g_inv)

    # G(B_a, B_b) = D_{B_a}(J B_b) - J D_{B_a} B_b, constant coefficients
    G = np.einsum("kb,akc->abc", J, gamma) - np.einsum("abd,cd->abc", gamma, J)

    # curvature on frame fields from the connection and bracket tables
    R = (
        np.einsum("bce,aed->abcd", gamma, gamma)
        - np.einsum("ace,bed->abcd", gamma, gamma)
        - np.einsum("abe,ecd->abcd", C, gamma)
    )

    # connection gap (J G(X, PY) + J G(Y, PX)) / 2 as one bilinear table:
    # K[a, b, c] = sum G[a, e, d] P[e, b] J[c, d] is J G(B_a, P B_b)
    K = np.einsum("aed,eb,cd->abc", G, P, J)
    gap = 0.5 * (K + np.swapaxes(K, 0, 1))

    return StructureTables(
        g=_freeze(g),
        g_inv=_freeze(g_inv),
        J=_freeze(J),
        P=_freeze(P),
        Q=_freeze(Q),
        bracket=_freeze(C),
        gamma=_freeze(gamma),
        G=_freeze(G),
        R=_freeze(R),
        gap=_freeze(gap),
    )


@lru_cache(maxsize=1)
def get_tables() -> StructureTables:
    return build_tables()


# ---------------------------------------------------------------------------
# frame coordinate conversions
# ---------------------------------------------------------------------------

def factor_coords(p, u) -> np.ndarray:
    """Frame coefficients vec(pbar u) (..., 3) of velocities u (..., 4) of
    one factor at its points p (..., 4); broadcasts."""
    return qt.vec(qt.mul(qt.conj(p), u))


def frame_coords(z: TangentVector) -> np.ndarray:
    """Coefficients of a tangent vector in the left-invariant frame."""
    at = z.at
    return np.concatenate([factor_coords(at.p, z.u), factor_coords(at.q, z.v)])


def frame_coords_components(p, q, u, v) -> np.ndarray:
    """Batched frame coefficients for raw component arrays."""
    return np.concatenate([factor_coords(p, u), factor_coords(q, v)], axis=-1)


def frame_to_r8(p, q, x) -> np.ndarray:
    """Flat R^8 representation (U, V) of frame coefficient vectors (..., 6)
    at the points (p, q) (..., 4); broadcasts over the leading axes of x and
    of the points."""
    u = qt.mul(p, qt.pure(x[..., :3]))
    v = qt.mul(q, qt.pure(x[..., 3:]))
    return np.concatenate([u, v], axis=-1)


def r8_to_frame(p, q, w) -> np.ndarray:
    """Tangent-project flat R^8 vectors (..., 8) at the points (p, q)
    (..., 4), in frame coefficients; broadcasts."""
    u, v = project_components(p, q, w[..., :4], w[..., 4:])
    return frame_coords_components(p, q, u, v)


# ---------------------------------------------------------------------------
# tensor evaluation
# ---------------------------------------------------------------------------

# Row-wise products of a batch are numpy's `vecmat`, `matvec` and `vecdot`,
# which take one dot product per output entry of each row, so a batched row
# equals the single-point result bitwise; an (m, 6) @ (6, 6) product would
# instead be one matrix-matrix call that rounds differently.

def lower(tables: StructureTables, x):
    """The lowered vectors x g (..., 6) of frame vectors x (..., 6), as
    row-wise products: g(x, y) is the row dot of x g with y."""
    return np.vecmat(x, tables.g)


def g_inner(tables: StructureTables, x, y):
    """Metric pairing g(x, y) of frame vectors, the row dot of `lower(x)`
    with y; broadcasts over rows, each row bitwise equal to its single-row
    call.  Several pairings against one vector lower it once and take row
    dots (`np.vecdot`) with the lowered vector, which is bitwise this
    pairing with that vector first."""
    return np.vecdot(lower(tables, x), y)


def g_norm(tables: StructureTables, x):
    return np.sqrt(np.maximum(g_inner(tables, x, x), 0.0))


def _bilinear(T: np.ndarray, x, y) -> np.ndarray:
    """sum_ab T[a, b, :] x_a y_b for a (6, 6, 6) table T, or for each table
    of a stack T (k, 6, 6, 6) as a (k, ..., 6) stack; broadcasts over rows
    of x and y.

    The outer product x (x) y is formed once, flattened to (..., 36), and
    multiplied by each table reshaped to (36, 6) with `np.vecmat`, so each
    (table, row) pair is its own vector-matrix product: a batched row equals
    the single-row result, and slice i of a stack the single table T[i],
    bitwise.
    """
    xy = x[..., :, None] * y[..., None, :]
    rows = xy.shape[:-2]
    tables = T.reshape(T.shape[:-3] + (1,) * len(rows) + (36, 6))
    return np.vecmat(xy.reshape(rows + (36,)), tables)


def tensor_G(tables: StructureTables, x, y):
    """J-derivative tensor G(X, Y); broadcasts over rows of x and y."""
    return _bilinear(tables.G, x, y)


def nabla(tables: StructureTables, x, y):
    """Connection applied to a field with constant frame coefficients y."""
    return _bilinear(tables.gamma, x, y)


def curvature(tables: StructureTables, x, y, z):
    """Curvature R(X, Y) Z through the structure-constant table; broadcasts
    over rows of x, y and z.

    The contraction is staged: the outer product x (x) y is flattened to
    (..., 36), multiplied by R reshaped to (36, 36) over the pair index
    (a, b), and the (..., 6, 6) result over (c, d) is contracted with z.
    """
    xy = x[..., :, None] * y[..., None, :]
    rz = xy.reshape(xy.shape[:-2] + (36,)) @ tables.R.reshape(36, 36)
    return np.einsum("...cd,...c->...d", rz.reshape(xy.shape), z)


def curvature_closed_form(tables: StructureTables, x, y, z):
    """Curvature R(X, Y) Z through the ambient closed form.

    R(X,Y)Z = 5/12 [g(Y,Z) X - g(X,Z) Y]
            + 1/12 [g(JY,Z) JX - g(JX,Z) JY - 2 g(JX,Y) JZ]
            + 1/3  [g(PY,Z) PX - g(PX,Z) PY + g(JPY,Z) JPX - g(JPX,Z) JPY]
    """
    J, P = tables.J, tables.P
    jx = x @ J.T
    jy = y @ J.T
    jz = z @ J.T
    px = x @ P.T
    py = y @ P.T
    jpx = px @ J.T
    jpy = py @ J.T
    # eight of the nine pairings are against z: lower it once
    zl = lower(tables, z)

    def gz(u):
        return np.vecdot(zl, u)[..., None]

    term1 = (5.0 / 12.0) * (gz(y) * x - gz(x) * y)
    term2 = (1.0 / 12.0) * (gz(jy) * jx - gz(jx) * jy
                            - 2.0 * g_inner(tables, jx, y)[..., None] * jz)
    term3 = (1.0 / 3.0) * (gz(py) * px - gz(px) * py + gz(jpy) * jpx - gz(jpx) * jpy)
    return term1 + term2 + term3


def euclidean_connection(p, q, x, y) -> np.ndarray:
    """Product-round-metric connection of a constant-frame-coefficient field
    at the point (p, q); broadcasts over rows of x, y and of the points.

    The field Y(p, q) = (p u, q v) with fixed imaginary u, v is linear in the
    point, so its flat R^8 derivative along X is (X_p u, X_q v) exactly, and
    its tangent projection is the connection, with no differencing error;
    X's flat form (X_p, X_q) is `frame_to_r8(p, q, x)`.
    Taking frame coefficients is that projection: the coefficients of
    (du, dv) are vec(p-bar du) and vec(q-bar dv), and the real parts they
    drop, <p, du> and <q, dv>, are the radial components.
    """
    xu, xv = np.split(frame_to_r8(p, q, x), 2, axis=-1)
    du = qt.mul(xu, qt.pure(y[..., :3]))
    dv = qt.mul(xv, qt.pure(y[..., 3:]))
    return frame_coords_components(p, q, du, dv)


def connection_relation_residual(
        tables: StructureTables, p, q, x, y) -> np.ndarray:
    """Residual of the flat-vs-frame connection relation at the points
    (p, q); broadcasts over rows of x, y and of the points.

    The right-hand side D_X Y + (J G(X, PY) + J G(Y, PX)) / 2 takes the
    tables `gamma` and `gap` from one outer product.  One residual per row,
    each bitwise equal to its single-row call.
    """
    lhs = euclidean_connection(p, q, x, y)
    d_xy, gap = _bilinear(np.stack((tables.gamma, tables.gap)), x, y)
    return g_norm(tables, lhs - (d_xy + gap))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tables_to_json(tables: StructureTables) -> str:
    """Dump all tables as JSON with reals rendered as decimal strings."""

    def render(a: np.ndarray):
        if a.ndim == 1:
            return [repr(float(x)) for x in a]
        return [render(row) for row in a]

    doc = {
        "basis": ["E1", "E2", "E3", "F1", "F2", "F3"],
        "g": render(tables.g),
        "J": render(tables.J),
        "P": render(tables.P),
        "Q": render(tables.Q),
        "bracket": render(tables.bracket),
        "gamma": render(tables.gamma),
        "G": render(tables.G),
        "R": render(tables.R),
    }
    return json.dumps(doc, indent=2)
