"""Property tests of the staged frame kernels over broadcast-compatible
shapes (hypothesis): `frames.curvature` against its written-out
contraction, and the bilinear tensors batched against row by row."""

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
    # (6,) x (6,), (n, 6) x (n, 6), (n, 6) x (6,) and (a, b, 6) x (a, 1, 6):
    # the layouts of the structure suite and the hypersurface code
    n, a, b = (draw(st.integers(1, 5)) for _ in range(3))
    shapes = draw(st.sampled_from([((), ()), ((n,), (n,)), ((n,), ()), ((a, b), (a, 1))]))
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return tuple(draw(hnp.arrays(np.float64, shape + (6,), elements=elements))
                 for shape in shapes)


@settings(max_examples=200, deadline=None, database=None)
@given(_operand_pair(), st.sampled_from(["tensor_G", "nabla", "connection_gap"]))
def test_bilinear_kernels_batch_rowwise_bitwise(pair, name):
    f = getattr(frames, name)
    x, y = pair
    out = f(T, x, y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    assert out.shape == shape
    xb, yb = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
    rows = np.empty(shape)
    for idx in np.ndindex(shape[:-1]):
        rows[idx] = f(T, xb[idx], yb[idx])
    assert out.tobytes() == rows.tobytes()
