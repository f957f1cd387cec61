"""Property tests of the staged frame kernels over broadcast-compatible
shapes (hypothesis): `frames.curvature` and `frames.g_inner` against their
written-out sums; the bilinear tensors, the metric pairing, its lowered
vectors and norm, and the closed-form curvature batched against row by
row; a stacked bilinear call against its single tables; the pairing
against the row dot of its lowered vector; and numpy's row-wise product
gufuncs against the one-row matmul they replace."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from nks3 import frames  # noqa: E402

T = frames.get_tables()
# zero or of magnitude 1e-3..1e3: no product underflows, so the relative
# error bound below holds
_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)
)


@st.composite
def _operand_triple(draw):
    # leading axes of ndim 0-3, broadcast-compatible; the last axis is 6
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=3, min_dims=0, max_dims=3))
    return tuple(
        draw(hnp.arrays(np.float64, shape + (6,), elements=_ELEMENTS))
        for shape in shapes.input_shapes
    )


@settings(max_examples=300, deadline=None, database=None)
@given(_operand_triple())
def test_curvature_matches_the_written_out_contraction(triple):
    x, y, z = triple
    out = frames.curvature(T, x, y, z)
    expected = np.einsum("abcd,...a,...b,...c->...d", T.R, x, y, z)
    assert out.shape == np.broadcast_shapes(x.shape, y.shape, z.shape)
    # both sides sum at most 216 rounded products of R x y z, so their gap
    # is bounded by a few hundred ulps of max|R| |x|_1 |y|_1 |z|_1
    scale = (np.max(np.abs(T.R)) * np.abs(x).sum(-1) * np.abs(y).sum(-1)
             * np.abs(z).sum(-1))
    assert np.all(np.abs(out - expected) <= 1e-13 * scale[..., None])


@st.composite
def _operand_pair(draw):
    # (6,) x (6,), (n, 6) x (n, 6), (n, 6) x (6,), (a, b, 6) x (a, 1, 6) and
    # (6,) against (a, b, 6) either way round: the layouts of the structure
    # suite and the hypersurface code, and a pair whose rows come from the
    # second operand alone
    n, a, b = (draw(st.integers(1, 5)) for _ in range(3))
    shapes = draw(st.sampled_from([((), ()), ((n,), (n,)), ((n,), ()), ((a, b), (a, 1)),
                                   ((), (a, b)), ((a, b), ())]))
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return tuple(draw(hnp.arrays(np.float64, shape + (6,), elements=elements))
                 for shape in shapes)


# the bilinear kernels, each through `_bilinear`, and the order of their
# tables in one stacked call
_KERNELS = {
    "tensor_G": frames.tensor_G,
    "nabla": frames.nabla,
    "gap": lambda t, x, y: frames._bilinear(t.gap, x, y),
}
_STACKED = np.stack((T.G, T.gamma, T.gap))


@settings(max_examples=200, deadline=None, database=None)
@given(_operand_pair(), st.sampled_from(sorted(_KERNELS)))
def test_bilinear_kernels_batch_rowwise_bitwise(pair, name):
    f = _KERNELS[name]
    x, y = pair
    out = f(T, x, y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    assert out.shape == shape
    xb, yb = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
    rows = np.empty(shape)
    for idx in np.ndindex(shape[:-1]):
        rows[idx] = f(T, xb[idx], yb[idx])
    assert out.tobytes() == rows.tobytes()
    # one outer product for a stack of tables: its slice is the table's own call
    stacked = frames._bilinear(_STACKED, x, y)
    assert stacked.shape == (len(_KERNELS),) + shape
    assert stacked[list(_KERNELS).index(name)].tobytes() == out.tobytes()


def _rows_of(f, shape, *args):
    """f applied to one row of the broadcast operands at a time."""
    args = [np.broadcast_to(a, shape) for a in args]
    out = None
    for idx in np.ndindex(shape[:-1]):
        row = np.asarray(f(*(a[idx] for a in args)))
        if out is None:
            out = np.empty(shape[:-1] + row.shape)
        out[idx] = row
    return out


@settings(max_examples=200, deadline=None, database=None)
@given(_operand_pair())
def test_pairings_batch_rowwise_bitwise(pair):
    x, y = pair
    for f, args in ((lambda a, b: frames.g_inner(T, a, b), (x, y)),
                    (lambda a: frames.lower(T, a), (x,)),
                    (lambda a: frames.g_norm(T, a), (x,))):
        out = np.asarray(f(*args))
        expected = _rows_of(f, np.broadcast_shapes(*(a.shape for a in args)), *args)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(_operand_triple())
def test_closed_form_curvature_batch_rowwise_bitwise(triple):
    # in the layout the hypersurface code passes it, each frame vector a
    # one-row matrix (..., 1, 6), so its constant-matrix products are per row
    shape = np.broadcast_shapes(*(v.shape for v in triple))
    rows = tuple(v[..., None, :] for v in triple)
    out = frames.curvature_closed_form(T, *rows)[..., 0, :]
    expected = _rows_of(lambda *v: frames.curvature_closed_form(T, *v), shape, *triple)
    assert out.shape == shape
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(_operand_triple())
def test_g_inner_matches_the_written_out_double_sum(triple):
    x, y, _ = triple
    out = frames.g_inner(T, x, y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xb, yb = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
    for idx in np.ndindex(shape[:-1]):
        terms = [xb[idx][i] * T.g[i, j] * yb[idx][j] for i in range(6) for j in range(6)]
        scale = sum(abs(xb[idx][i] * T.g[i, j] * yb[idx][j])
                    for i in range(6) for j in range(6))
        # six lowered entries of at most six terms each, then a dot of six:
        # at most twelve roundings in a row, about 1.3e-15 of the sum of the
        # absolute products; the bound leaves room for the reference's own
        # rounded products
        assert abs(float(np.asarray(out)[idx]) - math.fsum(terms)) <= 1e-14 * scale


@settings(max_examples=200, deadline=None, database=None)
@given(_operand_pair())
def test_g_inner_is_the_row_dot_of_the_lowered_vector(pair):
    # the contract that lets several pairings share one lowered vector
    x, y = pair
    out = np.asarray(frames.g_inner(T, x, y))
    assert out.tobytes() == np.asarray(np.vecdot(frames.lower(T, x), y)).tobytes()



# The one-row matmul that each row-wise product of the package was before
# numpy's gufuncs: the vector a (..., 1, k) row or (..., k, 1) column, so
# that matmul takes each row on its own.  It is kept here as the reference.
def _matmul_vecmat(x, A):
    return (x[..., None, :] @ A)[..., 0, :]


def _matmul_matvec(A, x):
    return (A @ x[..., None])[..., 0]


def _matmul_vecdot(x, y):
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


# each product's gufunc, its reference, and its operands' roles
_ROW_PRODUCTS = {
    "vecmat": (np.vecmat, _matmul_vecmat, ("vector", "matrix")),
    "matvec": (np.matvec, _matmul_matvec, ("matrix", "vector")),
    "vecdot": (np.vecdot, _matmul_vecdot, ("vector", "vector")),
}
# (product, operand shapes) of the layouts the package passes, with m rows
# and a stack of k: tangent-frame components times frames, stacked
# directions, frame vectors times a constant matrix, the outer product
# x (x) y times one bilinear table and times a stack of them, the level
# set's weighted Hessians, the lowered frames times frame vectors, the
# quaternion row norms, and single vectors
_LAYOUTS = [
    ("vecmat", ("m", 5), ("m", 5, 6)),
    ("vecmat", ("k", "m", 5), ("m", 5, 6)),
    ("vecmat", (5,), ("m", 5, 6)),
    ("vecmat", ("m", 6), (6, 6)),
    ("vecmat", ("k", "m", 6), (6, 6)),
    ("vecmat", ("m", 36), (36, 6)),
    ("vecmat", ("k", "m", 36), (36, 6)),
    ("vecmat", ("m", 36), ("k", 1, 36, 6)),
    ("vecmat", ("m", 2), ("m", 2, 36)),
    ("vecmat", (6,), (6, 6)),
    ("vecmat", (36,), (36, 6)),
    ("matvec", (6, 6), ("m", 6)),
    ("matvec", (6, 6), ("k", "m", 6)),
    ("matvec", ("m", 5, 6), ("m", 6)),
    ("matvec", ("m", 5, 6), ("k", "m", 6)),
    ("matvec", (36, 6), ("m", 2, 6)),
    ("matvec", (6, 6), (6,)),
    ("vecdot", ("m", 6), ("m", 6)),
    ("vecdot", ("k", "m", 5), ("m", 5)),
    ("vecdot", ("m", 2, 4), ("m", 2, 4)),
    ("vecdot", ("m", 4), ("m", 4)),
    ("vecdot", (6,), (6,)),
]


def _strided(a: np.ndarray, role: str) -> np.ndarray:
    """The values of a as a view that is not C-contiguous: a vector every
    other element of a wider row, a matrix stored column by column."""
    if role == "vector":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]
    return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)


@st.composite
def _row_product_case(draw):
    name, *layout = draw(st.sampled_from(_LAYOUTS))
    sizes = {"m": draw(st.integers(1, 6)), "k": draw(st.integers(1, 3))}
    # the zeros of either sign fill whole rows often enough to test the sign
    # of a zero sum
    elements = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    operands = []
    for dims, role in zip(layout, _ROW_PRODUCTS[name][2]):
        a = draw(hnp.arrays(np.float64, tuple(sizes.get(d, d) for d in dims),
                            elements=elements))
        operands.append(_strided(a, role) if draw(st.booleans()) else a)
    return name, operands


@settings(max_examples=500, deadline=None, database=None)
@given(_row_product_case())
def test_row_product_gufuncs_equal_the_one_row_matmul_bitwise(case):
    # contiguous rows, strided vectors and column-major matrices: matmul
    # reaches the same BLAS routine for each, so every layout the package
    # passes keeps the bits it had
    name, operands = case
    gufunc, reference, _ = _ROW_PRODUCTS[name]
    out, expected = gufunc(*operands), reference(*operands)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
