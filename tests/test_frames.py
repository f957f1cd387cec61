"""Frame-table calculus: table values, connection axioms, J-derivative
tensor identities, curvature routes, and agreement with the pointwise
formulas."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import frames, pointwise as pw, quat as qt

SQRT3 = math.sqrt(3.0)

T = frames.get_tables()


def _rng(seed=0):
    return np.random.default_rng(seed)


def _points(rng, n):
    """n points (p, q) of the product, each factor (n, 4)."""
    return tuple(qt.unit_rows(rng, rng.standard_normal((2, n, 4))))


def _structure_check_table():
    path = pathlib.Path(__file__).parent / "data" / "check_table.json"
    return json.loads(path.read_text())["structure"]


class TestTables:
    def test_metric_values(self):
        assert T.g[0, 0] == pytest.approx(4.0 / 3.0, abs=0)
        assert T.g[3, 3] == pytest.approx(4.0 / 3.0, abs=0)
        assert T.g[0, 3] == pytest.approx(-2.0 / 3.0, abs=0)
        assert T.g[0, 1] == 0.0

    def test_metric_positive_definite(self):
        assert np.linalg.eigvalsh(T.g)[0] > 0.0
        npt.assert_array_equal(T.g, T.g.T)

    def test_complex_structure_squares_to_minus_id(self):
        npt.assert_allclose(T.J @ T.J, -np.eye(6), atol=1e-15)

    def test_product_structure(self):
        npt.assert_array_equal(T.P @ T.P, np.eye(6))
        # image of E2 is F2
        e2 = np.zeros(6)
        e2[1] = 1.0
        f2 = np.zeros(6)
        f2[4] = 1.0
        npt.assert_array_equal(T.P @ e2, f2)
        npt.assert_allclose(T.P @ T.g, (T.P @ T.g).T, atol=1e-15)
        npt.assert_allclose(T.P @ T.J + T.J @ T.P, 0.0, atol=1e-15)

    def test_factor_involution_from_P_and_J(self):
        npt.assert_allclose(T.Q, (2.0 * T.P @ T.J - T.J) / SQRT3, atol=1e-15)

    def test_connection_torsion_free(self):
        torsion = T.gamma - np.swapaxes(T.gamma, 0, 1) - T.bracket
        assert np.max(np.abs(torsion)) <= 1e-12

    def test_connection_metric_compatible(self):
        resid = np.einsum("abe,ec->abc", T.gamma, T.g) + np.einsum(
            "ace,eb->abc", T.gamma, T.g
        )
        assert np.max(np.abs(resid)) <= 1e-12

    def test_sphere_factor_leaf_totally_geodesic(self):
        # derivatives of first-factor fields along first-factor fields stay
        # in the first factor, and the same for the second
        assert np.max(np.abs(T.gamma[:3, :3, 3:])) == 0.0
        assert np.max(np.abs(T.gamma[3:, 3:, :3])) == 0.0

    def test_tables_frozen(self):
        with pytest.raises(ValueError):
            T.g[0, 0] = 0.0


class TestFrameCoordinates:
    def test_round_trip_identity(self):
        rng = _rng(1)
        p, q = _points(rng, 50)
        x = rng.standard_normal((50, 6))
        w = frames.frame_to_r8(p, q, x)
        npt.assert_allclose(frames.frame_coords_components(p, q, w[:, :4], w[:, 4:]), x,
                            atol=1e-12)

    def test_object_form_is_the_component_form(self):
        rng = _rng(5)
        p, q = _points(rng, 1)
        u, v = pw.project_components(p[0], q[0], *rng.standard_normal((2, 4)))
        z = pw.TangentVector(pw.AmbientPoint(p[0], q[0]), u, v)
        assert (frames.frame_coords(z).tobytes()
                == frames.frame_coords_components(p[0], q[0], u, v).tobytes())

    def test_r8_projection_round_trip(self):
        rng = _rng(2)
        p, q = _points(rng, 50)
        x = rng.standard_normal((50, 6))
        npt.assert_allclose(frames.r8_to_frame(p, q, frames.frame_to_r8(p, q, x)), x,
                            atol=1e-12)

    def test_flat_conversions_broadcast_over_batches(self):
        rng = _rng(4)
        p, q = _points(rng, 6)
        x = rng.standard_normal((6, 6))
        w = rng.standard_normal((6, 8))
        flat = frames.frame_to_r8(p, q, x)
        back = frames.r8_to_frame(p, q, w)
        assert flat.shape == (6, 8) and back.shape == (6, 6)
        for i in range(6):
            npt.assert_array_equal(flat[i], frames.frame_to_r8(p[i], q[i], x[i]))
            npt.assert_array_equal(back[i], frames.r8_to_frame(p[i], q[i], w[i]))
        # one point against a stack of vectors
        npt.assert_array_equal(frames.frame_to_r8(p[0], q[0], x)[2],
                               frames.frame_to_r8(p[0], q[0], x[2]))

    def test_agreement_with_pointwise(self):
        rng = _rng(3)
        p, q = _points(rng, 100)
        z1 = pw.project_components(p, q, *rng.standard_normal((2, 100, 4)))
        z2 = pw.project_components(p, q, *rng.standard_normal((2, 100, 4)))
        x1 = frames.frame_coords_components(p, q, *z1)
        x2 = frames.frame_coords_components(p, q, *z2)
        for image, table in ((pw.j_components(p, q, *z1), T.J),
                             (pw.p_components(p, q, *z1), T.P),
                             (pw.q_components(*z1), T.Q)):
            npt.assert_allclose(
                frames.frame_coords_components(p, q, *pw.project_components(p, q, *image)),
                x1 @ table.T, atol=1e-10)
        npt.assert_allclose(pw.metric_components(p, q, *z1, *z2),
                            np.einsum("na,ab,nb->n", x1, T.g, x2), rtol=0.0, atol=1e-10)


class TestJDerivativeTensor:
    def test_hand_value(self):
        # G(E1, E2) = 2 (E3 + 2 F3) / (3 sqrt(3)), from the connection table
        e1 = np.eye(6)[0]
        e2 = np.eye(6)[1]
        expect = np.array([0, 0, 2.0 / (3.0 * SQRT3), 0, 0, 4.0 / (3.0 * SQRT3)])
        npt.assert_allclose(frames.tensor_G(T, e1, e2), expect, atol=1e-15)

    def test_vanishes_on_diagonal(self):
        rng = _rng(4)
        X = rng.standard_normal((200, 6))
        assert np.max(frames.g_norm(T, frames.tensor_G(T, X, X))) <= 1e-12

    def test_norm_on_orthonormal_J_orthogonal_pairs(self):
        # |G(X, Y)|^2 = 1/3 whenever X, Y are g-orthonormal with g(JX,Y) = 0
        rng = _rng(5)
        for _ in range(100):
            x = rng.standard_normal(6)
            x = x / frames.g_norm(T, x)
            y = rng.standard_normal(6)
            jx = T.J @ x
            y = y - frames.g_inner(T, y, x) * x - frames.g_inner(T, y, jx) * jx
            y = y / frames.g_norm(T, y)
            val = frames.g_inner(T, frames.tensor_G(T, x, y), frames.tensor_G(T, x, y))
            assert val == pytest.approx(1.0 / 3.0, abs=1e-10)

    @staticmethod
    def _P_derivative_residual(x, y):
        # 2 (D_X P) Y = J G(X, PY) + J P G(X, Y), written out in the tables
        py = y @ T.P.T
        lhs = 2.0 * (frames.nabla(T, x, py) - frames.nabla(T, x, y) @ T.P.T)
        rhs = (frames.tensor_G(T, x, py) @ T.J.T
               + frames.tensor_G(T, x, y) @ (T.J @ T.P).T)
        return float(np.max(frames.g_norm(T, lhs - rhs)))

    def test_exhaustive_P_derivative_on_basis(self):
        for a in range(6):
            for b in range(6):
                x = np.eye(6)[a]
                y = np.eye(6)[b]
                assert self._P_derivative_residual(x, y) <= 1e-12

    def test_P_derivative_random(self):
        rng = _rng(6)
        X = rng.standard_normal((100, 6))
        Y = rng.standard_normal((100, 6))
        assert self._P_derivative_residual(X, Y) <= 1e-10
        assert self._P_derivative_residual(X, X) <= 1e-10


class TestFlatConnectionRelation:
    def test_hand_case(self):
        # at (1, 1) the flat derivative of the E2 field along E1 projects to E3
        e1 = np.eye(6)[0]
        e2 = np.eye(6)[1]
        npt.assert_allclose(
            frames.euclidean_connection(qt.ONE, qt.ONE, e1, e2), np.eye(6)[2], atol=1e-15
        )
        assert frames.connection_relation_residual(T, qt.ONE, qt.ONE, e1, e2) <= 1e-14

    def test_flat_derivative_is_the_cross_product(self):
        # (p x, q x') differentiated along (p y, q y') is (p x y, q x' y');
        # projecting off the radial part -(x . y) p leaves p (x cross y)
        rng = _rng(17)
        for _ in range(200):
            p, q = qt.sample_unit(rng), qt.sample_unit(rng)
            x, y = rng.standard_normal((2, 6))
            expected = np.concatenate([np.cross(x[:3], y[:3]), np.cross(x[3:], y[3:])])
            npt.assert_allclose(frames.euclidean_connection(p, q, x, y), expected,
                                rtol=0.0, atol=1e-14)

    def test_euclidean_connection_batches_rowwise(self):
        rng = _rng(18)
        n = 200
        p = np.array([qt.sample_unit(rng) for _ in range(n)])
        q = np.array([qt.sample_unit(rng) for _ in range(n)])
        X, Y = rng.standard_normal((2, n, 6))
        batched = frames.euclidean_connection(p, q, X, Y)
        assert batched.shape == (n, 6)
        rows = np.array([frames.euclidean_connection(p[i], q[i], X[i], Y[i])
                         for i in range(n)])
        assert batched.tobytes() == rows.tobytes()

    def test_connection_relation_residual_batches_rowwise(self):
        # the structure suite evaluates the relation once over all samples;
        # each row is its single-point residual, to the last bit
        rng = _rng(21)
        n = 200
        p = np.array([qt.sample_unit(rng) for _ in range(n)])
        q = np.array([qt.sample_unit(rng) for _ in range(n)])
        X, Y = rng.standard_normal((2, n, 6))
        batched = frames.connection_relation_residual(T, p, q, X, Y)
        assert batched.shape == (n,)
        rows = [frames.connection_relation_residual(T, p[i], q[i], X[i], Y[i])
                for i in range(n)]
        assert all(r.shape == () for r in rows)
        assert batched.tobytes() == np.array(rows).tobytes()

    def test_random_fields(self):
        rng = _rng(7)
        p, q = _points(rng, 200)
        X, Y = rng.standard_normal((2, 200, 6))
        assert np.max(frames.connection_relation_residual(T, p, q, X, Y)) <= 1e-10

    def test_connection_gap_batches_rowwise(self):
        # the hypersurface code subtracts the gap from stacks of frame rows
        # against one field value, the structure suite one row at a time;
        # both evaluate the same per-row product, to the last bit
        rng = _rng(8)
        X = rng.standard_normal((4, 5, 6))
        Y = rng.standard_normal((4, 1, 6))
        batched = frames._bilinear(T.gap, X, Y)
        assert batched.shape == (4, 5, 6)
        rows = np.array([[frames._bilinear(T.gap, X[m, i], Y[m, 0]) for i in range(5)]
                         for m in range(4)])
        assert batched.tobytes() == rows.tobytes()
        G_rows = np.array([[frames.tensor_G(T, X[m, i], Y[m, 0] @ T.P.T)
                            for i in range(5)] for m in range(4)])
        assert frames.tensor_G(T, X, Y @ T.P.T).tobytes() == G_rows.tobytes()

    def test_frame_coefficients_are_the_tangent_projection(self):
        # frame coefficients drop the real parts <p, u> and <q, v>, which
        # are the radial components, so a raw pair and its tangent
        # projection have the same coefficients
        rng = _rng(19)
        n = 200
        p = np.array([qt.sample_unit(rng) for _ in range(n)])
        q = np.array([qt.sample_unit(rng) for _ in range(n)])
        u, v = rng.standard_normal((2, n, 4))
        raw = frames.frame_coords_components(p, q, u, v)
        projected = frames.frame_coords_components(p, q, *pw.project_components(p, q, u, v))
        scale = np.maximum(np.abs(u).max(-1), np.abs(v).max(-1))[:, None]
        assert np.all(np.abs(raw - projected) <= 8.0 * np.finfo(float).eps * scale)

    def test_negative_control_scaled_tables_fail(self):
        # the gap and connection tables are precomputed; scaling either by
        # 1 + 1e-9 must break the relation against the flat derivative, so
        # the check does not hold by construction
        tol = next(c["tolerance"] for c in _structure_check_table()
                   if c["id"] == "flat-connection-relation")
        rng = _rng(20)
        samples = [(qt.sample_unit(rng), qt.sample_unit(rng), *rng.standard_normal((2, 6)))
                   for _ in range(100)]

        def worst(tables):
            return max(frames.connection_relation_residual(tables, *s) for s in samples)

        assert worst(T) <= 1e-14
        for name in ("gap", "gamma"):
            scaled = dataclasses.replace(T, **{name: (1.0 + 1e-9) * getattr(T, name)})
            assert worst(scaled) > tol, name


class TestStagedBilinearKernels:
    """`tensor_G`, `nabla` and the gap table through `_bilinear` against
    their written-out definitions, with the gap composed from G, P and J at
    call time."""

    @staticmethod
    def _G(x, y):
        return np.einsum("abc,...a,...b->...c", T.G, x, y)

    @classmethod
    def _gap(cls, x, y):
        return 0.5 * (cls._G(x, y @ T.P.T) @ T.J.T + cls._G(y, x @ T.P.T) @ T.J.T)

    @classmethod
    def _cases(cls):
        return [
            (frames.tensor_G, cls._G, T.G),
            (frames.nabla, lambda x, y: np.einsum("abc,...a,...b->...c", T.gamma, x, y),
             T.gamma),
            (lambda t, x, y: frames._bilinear(t.gap, x, y), cls._gap, T.gap),
        ]

    @staticmethod
    def _assert_close(out, expected, table, x, y):
        # a few ulp of the largest term max|table| |x|_1 |y|_1 of either sum
        scale = np.max(np.abs(table)) * np.abs(x).sum(-1) * np.abs(y).sum(-1)
        assert np.all(np.abs(out - expected) <= 8.0 * np.finfo(float).eps * scale[..., None])

    def test_all_basis_pairs(self):
        e = np.eye(6)
        for f, oracle, table in self._cases():
            for a in range(6):
                for b in range(6):
                    self._assert_close(f(T, e[a], e[b]), oracle(e[a], e[b]), table,
                                       e[a], e[b])

    def test_random_rows(self):
        rng = _rng(21)
        X, Y = rng.standard_normal((2, 500, 6))
        for f, oracle, table in self._cases():
            self._assert_close(f(T, X, Y), oracle(X, Y), table, X, Y)


class TestCurvature:
    def test_table_on_basis_triples(self):
        e = np.eye(6)
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    r = frames.curvature(T, e[a], e[b], e[c])
                    assert r.tobytes() == T.R[a, b, c].tobytes(), (a, b, c)

    def test_antisymmetry(self):
        rng = _rng(8)
        X = rng.standard_normal((100, 6))
        Z = rng.standard_normal((100, 6))
        assert np.max(frames.g_norm(T, frames.curvature(T, X, X, Z))) <= 1e-12

    def test_two_routes_agree(self):
        rng = _rng(9)
        X = rng.standard_normal((100, 6))
        Y = rng.standard_normal((100, 6))
        Z = rng.standard_normal((100, 6))
        diff = frames.curvature(T, X, Y, Z) - frames.curvature_closed_form(T, X, Y, Z)
        assert np.max(frames.g_norm(T, diff)) <= 1e-10

    def test_sectional_curvature_of_product_invariant_planes(self):
        # for g-orthonormal X, Y with PX = X, PY = Y, g(JX, Y) = 0 the
        # closed form collapses termwise to 5/12 + 1/3 = 3/4
        scale = SQRT3 / 2.0
        x = np.zeros(6)
        x[0] = x[3] = scale
        y = np.zeros(6)
        y[2] = y[5] = scale
        npt.assert_allclose(T.P @ x, x, atol=1e-15)
        assert frames.g_inner(T, x, x) == pytest.approx(1.0, abs=1e-14)
        assert abs(frames.g_inner(T, T.J @ x, y)) <= 1e-14
        k = frames.g_inner(T, frames.curvature(T, x, y, y), x)
        assert k == pytest.approx(0.75, abs=1e-12)

    def test_sphere_factor_sectional_curvature(self):
        e1 = np.eye(6)[0]
        e2 = np.eye(6)[1]
        k = frames.g_inner(T, frames.curvature(T, e1, e2, e2), e1)
        denom = frames.g_inner(T, e1, e1) * frames.g_inner(T, e2, e2)
        assert k / denom == pytest.approx(0.75, abs=1e-14)

    def test_einstein(self):
        # a strict nearly Kaehler 6-manifold is Einstein: the Ricci tensor,
        # the trace of X -> R(X, Y) Z, is 5/3 g
        def gap(R):
            return np.max(np.abs(np.einsum("abca->bc", R) - (5.0 / 3.0) * T.g))

        assert gap(T.R) <= 1e-14
        assert gap(T.R * (1.0 + 1e-9)) > 1e-14

    def test_gray_identity(self):
        # g(R(W,X)Y, Z) - g(R(W,X)JY, JZ) = -g(G(W,X), G(Y,Z)) in the
        # table's convention; the opposite sign misses by far
        W, X, Y, Z = _rng(17).standard_normal((4, 200, 6))
        J = T.J
        lhs = (frames.g_inner(T, frames.curvature(T, W, X, Y), Z)
               - frames.g_inner(T, frames.curvature(T, W, X, Y @ J.T), Z @ J.T))
        rhs = -frames.g_inner(T, frames.tensor_G(T, W, X), frames.tensor_G(T, Y, Z))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.max(np.abs(lhs + rhs)) > 1.0


def test_json_dump_matches_golden_file():
    golden_path = pathlib.Path(__file__).parent / "data" / "structure_tables.json"
    golden = json.loads(golden_path.read_text())
    current = json.loads(frames.tables_to_json(T))
    assert current.keys() == golden.keys()

    def walk(a, b):
        if isinstance(a, list):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                walk(x, y)
        else:
            assert float(a) == float(b)

    for key in golden:
        if key == "basis":
            assert current[key] == golden[key]
        else:
            walk(current[key], golden[key])
