"""Quaternion arithmetic: algebra axioms, norms, sampling."""

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import quat as qt


def test_multiplication_table():
    npt.assert_array_equal(qt.mul(qt.E1, qt.E2), qt.E3)
    npt.assert_array_equal(qt.mul(qt.E2, qt.E3), qt.E1)
    npt.assert_array_equal(qt.mul(qt.E3, qt.E1), qt.E2)
    npt.assert_array_equal(qt.mul(qt.E2, qt.E1), -qt.E3)
    npt.assert_array_equal(qt.mul(qt.E1, qt.E1), -qt.ONE)


def test_identity_element():
    rng = np.random.default_rng(0)
    q = rng.standard_normal(4)
    npt.assert_array_equal(qt.mul(qt.ONE, q), q)
    npt.assert_array_equal(qt.mul(q, qt.ONE), q)


def test_hand_expanded_product():
    # (1 + i)(1 + j) = 1 + i + j + k, expanded term by term
    a = np.array([1.0, 1.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    npt.assert_array_equal(qt.mul(a, b), np.array([1.0, 1.0, 1.0, 1.0]))


def test_associativity_and_distributivity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = rng.standard_normal((3, 4))
        npt.assert_allclose(
            qt.mul(qt.mul(a, b), c), qt.mul(a, qt.mul(b, c)), atol=1e-12
        )
        npt.assert_allclose(
            qt.mul(a, b + c), qt.mul(a, b) + qt.mul(a, c), atol=1e-12
        )


def _hamilton(q1, q2):
    # the Hamilton product written out per component, stacked on the last axis
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


@pytest.mark.parametrize("shape1, shape2", [
    ((4,), (4,)), ((500, 4), (4,)), ((4,), (7, 3, 4)), ((70, 3, 4), (70, 3, 4)),
    ((5, 1, 4), (1, 6, 4)), ((7, 3, 4), (3, 4)), ((3, 4), (7, 1, 4)),
    ((3, 3, 4), (3, 4)),
    # the chart layer's batches before its frame rows were written out
    ((2, 2, 3, 3, 1, 4), (2, 2, 3, 3, 5, 4)), ((4,), (2, 2, 3, 3, 4)),
    ((2, 2, 3, 3, 4), (4,)), ((10, 11, 4), (10, 11, 4)),
    # the twist's y x̄ in the m3 and m6 stencil charts of a battery pass
    ((4, 20, 4), (4, 20, 4)), ((2, 20, 4), (2, 20, 4)),
    # the isometry suite's finite-difference differential
    ((100, 4), (2, 100, 4)), ((2, 100, 4), (100, 4)), ((2, 100, 4), (2, 100, 4)),
    # the import-time product of hypersurfaces._second_factor_forms
    ((1, 4, 4), (4, 1, 4)),
])
def test_mul_matches_written_out_formula_bitwise(shape1, shape2):
    rng = np.random.default_rng(10)
    a = rng.standard_normal(shape1)
    b = rng.standard_normal(shape2)
    out = qt.mul(a, b)
    npt.assert_array_equal(out, _hamilton(a, b))
    assert out.shape == np.broadcast_shapes(shape1, shape2)
    assert out.flags.c_contiguous


def test_mul_agrees_bitwise_across_shapes_on_special_values():
    # the same products as single quaternions, an (n, 4) batch and an
    # (n, 1, 1, 4) one: numpy's loops differ by shape and address
    rng = np.random.default_rng(12)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e-300, -1e300])
    n = 5000
    a = rng.choice(values, (n, 4))
    b = rng.choice(values, (n, 4))
    with np.errstate(all="ignore"):
        flat = qt.mul(a, b)
        stacked = qt.mul(a.reshape(n, 1, 1, 4), b.reshape(n, 1, 1, 4)).reshape(n, 4)
        single = np.array([qt.mul(a[i], b[i]) for i in range(n)])
        one_flat = qt.mul(a[0], b)
        one_stacked = qt.mul(a[0], b.reshape(n, 1, 1, 4)).reshape(n, 4)
    assert np.isnan(flat).any() and (flat == 0).any() and np.isinf(flat).any()
    for x, y in ((flat, stacked), (flat, single), (one_flat, one_stacked)):
        assert x.tobytes() == y.tobytes()
        # assert_array_equal counts -0 equal to 0, so the signs are held apart
        npt.assert_array_equal(x, y)
        npt.assert_array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("shape", [(4,), (1, 4), (17, 4), (2, 1, 3, 4)])
def test_nan_products_are_positive_nan_for_every_shape(shape):
    # inf * 0 gives a negative NaN, np.nan is positive; where the two meet,
    # the sign numpy keeps depends on its loop, so a product returns np.nan
    a = np.broadcast_to([1.5, -np.inf, np.nan, np.inf], shape)
    b = np.broadcast_to([0.0, np.inf, np.nan, np.nan], shape)
    with np.errstate(all="ignore"):
        out = qt.mul(a, b)
    assert np.isnan(out).all()
    assert out.tobytes() == np.full(shape, np.nan).tobytes()


def test_single_quaternion_product_obeys_errstate_like_a_batch():
    inf = np.array([np.inf, 0.0, 0.0, 0.0])
    with np.errstate(all="raise"):
        for a, b in ((inf, np.zeros(4)), (inf[None], np.zeros((1, 4))),
                     (inf[None, None], np.zeros((1, 1, 4)))):
            with pytest.raises(FloatingPointError):
                qt.mul(a, b)
    with np.errstate(all="ignore"):
        assert np.isnan(qt.mul(inf, np.zeros(4))).all()


def test_mul_accepts_non_contiguous_operands():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 6)).T     # (6, 4), Fortran-ordered
    b = rng.standard_normal((6, 8))[:, ::2]
    out = qt.mul(a, b)
    npt.assert_array_equal(out, _hamilton(a, b))
    assert out.flags.c_contiguous
    # and as stacked batches
    a3 = rng.standard_normal((4, 3, 6)).T   # (6, 3, 4), Fortran-ordered
    b3 = rng.standard_normal((6, 3, 8))[..., ::2]
    out = qt.mul(a3, b3)
    npt.assert_array_equal(out, _hamilton(a3, b3))
    assert out.flags.c_contiguous


def test_norm_multiplicative():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((200, 4))
    b = rng.standard_normal((200, 4))
    npt.assert_allclose(qt.norm(qt.mul(a, b)), qt.norm(a) * qt.norm(b), atol=1e-12)


def test_conjugation():
    npt.assert_array_equal(qt.conj(qt.E1), -qt.E1)
    npt.assert_array_equal(qt.conj(qt.ONE), qt.ONE)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(4)
    npt.assert_allclose(
        qt.mul(q, qt.conj(q)), qt.dot(q, q) * qt.ONE, atol=1e-12
    )


def test_conjugation_preserves_imaginaries():
    # p u p^-1 = p u conj(p) stays imaginary with the same length, for unit p
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = qt.sample_unit(rng)
        u = qt.pure(rng.standard_normal(3))
        w = qt.mul(qt.mul(p, u), qt.conj(p))
        assert abs(w[0]) <= 1e-12
        npt.assert_allclose(qt.norm(w), qt.norm(u), atol=1e-12)


def test_exp_pure():
    npt.assert_array_equal(qt.exp_pure(np.zeros(3)), qt.ONE)
    v = np.array([np.pi / 2, 0.0, 0.0])
    npt.assert_allclose(qt.exp_pure(v), qt.E1, atol=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.standard_normal(3)
        npt.assert_allclose(qt.norm(qt.exp_pure(w)), 1.0, atol=1e-12)


def test_sample_unit_norm_and_determinism():
    rng = np.random.default_rng(8)
    q = qt.sample_unit(rng)
    npt.assert_allclose(qt.norm(q), 1.0, atol=1e-12)
    q2 = qt.sample_unit(np.random.default_rng(8))
    npt.assert_array_equal(q, q2)


def test_sample_unit_mean_component():
    # mean of the real component over 1e5 draws; 3 sigma ~= 0.005
    rng = np.random.default_rng(9)
    total = 0.0
    n = 100_000
    for _ in range(n):
        total += qt.sample_unit(rng)[0]
    assert abs(total / n) < 0.005


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("k", [1, 5, 9])
def test_unit_rows_equal_sequential_draws_bitwise(seed, k):
    # (samples, k, 4) draws in one array, scaled row by row, are the points
    # of samples * k single draws, and leave the generator in the same state
    rng = np.random.default_rng(seed)
    batch = qt.unit_rows(rng, rng.standard_normal((300, k, 4)))
    ref_rng = np.random.default_rng(seed)
    expected = np.array([[qt.sample_unit(ref_rng) for _ in range(k)]
                         for _ in range(300)])
    assert batch.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_unit_rows_scale_a_strided_view_in_place():
    # the isometry suite scales some slots of each sample and keeps the rest
    rng = np.random.default_rng(4)
    draws = rng.standard_normal((50, 9, 4))
    raw = draws.copy()
    qt.unit_rows(rng, draws[:, 6:])
    assert draws[:, :6].tobytes() == raw[:, :6].tobytes()
    ref_rng = np.random.default_rng(4)
    expected = []
    for _ in range(50):
        ref_rng.standard_normal((6, 4))
        expected.append([qt.sample_unit(ref_rng) for _ in range(3)])
    assert draws[:, 6:].tobytes() == np.array(expected).tobytes()


class _ZeroFirstRow:
    """A generator whose first draw has an all-zero first row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.first = True

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if self.first:
            out.reshape(-1, 4)[0] = 0.0
            self.first = False
        return out


def test_unit_rows_redraw_a_rejected_row():
    rng = _ZeroFirstRow(6)
    draws = rng.standard_normal((20, 5, 4))
    assert not draws[0, 0].any()
    qt.unit_rows(rng, draws)
    assert np.all(np.isfinite(draws))
    npt.assert_allclose(qt.norm(draws), 1.0, atol=1e-15)
    # the other rows are scaled as they were drawn
    ref = np.random.default_rng(6).standard_normal((20, 5, 4)).reshape(-1, 4)
    expected = np.array([v / np.linalg.norm(v) for v in ref[1:]])
    assert draws.reshape(-1, 4)[1:].tobytes() == expected.tobytes()
