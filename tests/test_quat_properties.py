"""Property test of `quat.mul` over broadcast-compatible shapes (hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from nks3 import quat as qt  # noqa: E402
from test_quat import _hamilton  # noqa: E402

# finite reals with both signed zeros; the bound keeps products finite
_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _operand_pair(draw):
    # leading axes of ndim 0-5, broadcast-compatible; the last axis is 4
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=5))
    a, b = (
        draw(hnp.arrays(np.float64, shape + (4,), elements=_ELEMENTS))
        for shape in shapes.input_shapes
    )
    return a, b


@settings(max_examples=300, deadline=None, database=None)
@given(_operand_pair())
def test_mul_matches_written_out_formula_on_broadcast_shapes(pair):
    a, b = pair
    out = qt.mul(a, b)
    expected = _hamilton(a, b)
    assert out.shape == np.broadcast_shapes(a.shape, b.shape)
    assert out.flags.c_contiguous
    assert out.tobytes() == np.ascontiguousarray(expected).tobytes()
