"""Hypersurface families: frozen point values, Hopf property, spectra
against closed forms, the normal-action trichotomy, identity residuals,
moduli relations and leaf geometry."""

import dataclasses
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from nks3 import hypersurfaces as hs
from nks3 import frames, pointwise as pw, quat as qt
from nks3.errors import DegenerateImmersionError, DomainError, PreconditionError

SQRT3 = math.sqrt(3.0)
ORIGIN5 = np.zeros(5)


ALL_FAMILIES = [
    ("m1", dict(r=0.6)), ("m2", dict(r=0.6)), ("m3", dict(r=1.0)),
    ("m4", dict(k=0.6, l=0.8)), ("m5", dict(k=0.6, l=0.8)),
    ("m6", dict(k=0.8, l=0.6)),
]


def _unit(v):
    return v / np.linalg.norm(v)


class TestMakeExample:
    def test_m1_point_at_r1(self):
        M = hs.make_example("m1", r=1.0)
        p, q = M.pushforward(ORIGIN5)[:2]
        npt.assert_allclose(p, qt.ONE, atol=1e-15)
        npt.assert_allclose(q, qt.E1, atol=1e-15)

    def test_m1_point_formula(self):
        M = hs.make_example("m1", r=0.6)
        p, q = M.pushforward(ORIGIN5)[:2]
        npt.assert_allclose(p, qt.ONE, atol=1e-15)
        npt.assert_allclose(q, np.array([0.8, 0.6, 0.0, 0.0]), atol=1e-15)

    def test_m4_second_factor_constraints(self):
        M = hs.make_example("m4", k=0.6, l=0.8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = M.pushforward(hs.random_chart_point(rng))[:2]
            assert qt.unit_defect(p) < 1e-12 and qt.unit_defect(q) < 1e-12
            assert q[0] ** 2 + q[1] ** 2 == pytest.approx(0.36, abs=1e-12)
            assert q[2] ** 2 + q[3] ** 2 == pytest.approx(0.64, abs=1e-12)

    @pytest.mark.parametrize("family", ["m1", "m2", "m3"])
    def test_r_range_validation(self, family):
        with pytest.raises(DomainError):
            hs.make_example(family, r=0.0)
        with pytest.raises(DomainError):
            hs.make_example(family, r=1.5)
        with pytest.raises(DomainError):
            hs.make_example(family, k=0.6, l=0.8)

    @pytest.mark.parametrize("family", ["m4", "m5", "m6"])
    def test_kl_validation(self, family):
        with pytest.raises(DomainError):
            hs.make_example(family, k=0.5, l=0.5)
        with pytest.raises(DomainError):
            hs.make_example(family, r=0.5)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            hs.make_example("m7", r=0.5)

    def test_pushforwards_are_tangent_rank_five(self):
        rng = np.random.default_rng(1)
        t = frames.get_tables()
        for family, kw in [("m1", dict(r=0.4)), ("m4", dict(k=0.6, l=0.8)),
                           ("m3", dict(r=1.0))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            p, q, coords = M.pushforward(u)
            assert p.shape == q.shape == (4,)
            assert coords.shape == (5, 6)
            gram = coords @ t.g @ coords.T
            assert np.linalg.eigvalsh(gram)[0] > 1e-6

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_pushforward_matches_central_differences(self, family, kw):
        # the closed-form pushforward against differences of the point map,
        # converted to frame coefficients the way differential_fd checks the
        # isometry differentials
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(22)
        h = 1e-6
        for _ in range(3):
            u = hs.random_chart_point(rng)
            p, q, T = M.pushforward(u)
            for a in range(5):
                step = np.zeros(5)
                step[a] = h
                (p1, q1), (p2, q2) = M.pushforward(u + step)[:2], M.pushforward(u - step)[:2]
                d8 = np.concatenate([p1 - p2, q1 - q2]) / (2.0 * h)
                npt.assert_allclose(frames.r8_to_frame(p, q, d8), T[a], atol=1e-8)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_batched_pushforward_equals_single_points(self, family, kw):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(23)
        us = np.stack([hs.random_chart_point(rng) for _ in range(4)])
        p, q, T = M.pushforward(us)
        assert p.shape == q.shape == (4, 4)
        assert T.shape == (4, 5, 6)
        for i, u in enumerate(us):
            p1, q1, T1 = M.pushforward(u)
            npt.assert_array_equal(p[i], p1)
            npt.assert_array_equal(q[i], q1)
            npt.assert_array_equal(T[i], T1)
        assert qt.unit_defect(p) < 1e-12 and qt.unit_defect(q) < 1e-12
        # a stencil with two leading axes
        p2, _, T2 = M.pushforward(us.reshape(2, 2, 5))
        npt.assert_array_equal(p2.reshape(4, 4), p)
        npt.assert_array_equal(T2.reshape(4, 5, 6), T)

    def test_chart_lock_raises(self):
        M = hs.make_example("m1", r=0.6)
        with pytest.raises(DegenerateImmersionError):
            hs.analyze_point(M, np.array([0.1, math.pi / 4.0, 0.2, 0.3, 0.4]))


class TestAnalyzePoint:
    def test_normal_and_structure_vector(self):
        rng = np.random.default_rng(2)
        t = frames.get_tables()
        M = hs.make_example("m1", r=0.6)
        for _ in range(10):
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            assert float(d.xi @ t.g @ d.xi) == pytest.approx(1.0, abs=1e-9)
            uvec = d.structure_vector
            assert float(uvec @ t.g @ uvec) == pytest.approx(1.0, abs=1e-9)
            assert abs(float(uvec @ t.g @ d.xi)) <= 1e-9
            for row in d.tangent_frame:
                assert abs(float(row @ t.g @ d.xi)) <= 1e-9

    def test_hopf_at_r1(self):
        M = hs.make_example("m1", r=1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            assert d.hopf_residual <= 1e-6
            assert abs(d.alpha) <= 1e-6

    def test_shape_symmetry(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            assert d.symmetry_residual <= 1e-6

    def test_almost_contact_relations(self):
        rng = np.random.default_rng(5)
        for family, kw in [("m1", dict(r=0.7)), ("m5", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            phi, eta = d.phi, d.eta
            assert np.max(np.abs(phi @ phi + np.eye(5) - np.outer(eta, eta))) <= 1e-8
            assert np.max(np.abs(eta @ phi)) <= 1e-8
            assert np.max(np.abs(phi + phi.T)) <= 1e-8

    def test_normal_flip_negates_shape(self):
        M = hs.make_example("m1", r=0.6)
        u = hs.random_chart_point(np.random.default_rng(6))
        d = hs.analyze_point(M, u)
        flipped = hs.analyze_point(M, u, ref_normal=-d.xi)
        npt.assert_allclose(flipped.shape, -d.shape, atol=1e-8)
        npt.assert_allclose(
            np.sort(np.abs(np.linalg.eigvalsh(flipped.shape))),
            np.sort(np.abs(np.linalg.eigvalsh(d.shape))),
            atol=1e-8,
        )
        # the product-structure coefficients do not depend on the sign
        assert flipped.a == pytest.approx(d.a, abs=1e-12)
        assert flipped.b == pytest.approx(d.b, abs=1e-12)


def _assert_same_point_data(d, e):
    """Every field of two point data bitwise equal."""
    for field in dataclasses.fields(hs.HypersurfacePointData):
        a, b = getattr(d, field.name), getattr(e, field.name)
        if field.name == "immersion":
            assert a is b
        elif field.name == "point":
            npt.assert_array_equal(a.p, b.p)
            npt.assert_array_equal(a.q, b.q)
        elif isinstance(a, np.ndarray):
            npt.assert_array_equal(a, b, err_msg=field.name)
        else:
            assert a == b, field.name


class TestAnalyzePoints:
    @staticmethod
    def _batch(family, kw, n=6):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(24)
        return M, np.stack([hs.random_chart_point(rng) for _ in range(n)])

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_batch_equals_single_points_bitwise(self, family, kw):
        M, U = self._batch(family, kw)
        batch = hs.analyze_points(M, U)
        assert len(batch) == len(U)
        assert batch.shape.shape == (6, 5, 5) and batch.alpha.shape == (6,)
        for d, u in zip(batch, U):
            _assert_same_point_data(d, hs.analyze_point(M, u))
            assert isinstance(d.alpha, float) and isinstance(d.c, float)
        with pytest.raises(TypeError):
            len(batch[0])
        # the batch mixes normals the orientation rule flips with normals
        # it keeps, so the rule is applied row by row
        raw = hs._unit_normal(hs._chart_data(M, U)[2])
        flipped = [bool(np.array_equal(d.xi, -x)) for d, x in zip(batch, raw)]
        assert any(flipped) and not all(flipped)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_batch_reference_normals(self, family, kw):
        M, U = self._batch(family, kw)
        ref = np.stack([-d.xi for d in hs.analyze_points(M, U)])
        ref[::2] *= -1.0
        batch = hs.analyze_points(M, U, ref_normal=ref)
        for d, u, r in zip(batch, U, ref):
            _assert_same_point_data(d, hs.analyze_point(M, u, ref_normal=r))
            assert float(d.xi @ r) > 0.0

    def test_point_data_keep_their_own_chart_points(self):
        M, U = self._batch("m4", dict(k=0.6, l=0.8))
        kept = U.copy()
        batch = hs.analyze_points(M, U)
        U += 0.3  # the caller reuses its array
        for d, u in zip(batch, kept):
            npt.assert_array_equal(d.u, u)
            assert not d.u.flags.writeable

    def test_rejects_a_single_point(self):
        M = hs.make_example("m1", r=0.6)
        with pytest.raises(DomainError):
            hs.analyze_points(M, ORIGIN5)

    @pytest.mark.parametrize("m", [1, 7])
    def test_one_chart_call_and_one_difference_step(self, monkeypatch, m):
        # the point and its ten segment ends come from one chart call, and
        # the normal's derivatives along all five chart lines from one step
        M, U = self._batch("m1", dict(r=0.6), n=m)
        shapes, steps = [], []
        pushforward, covariant_fd = hs.Immersion.pushforward, hs._covariant_fd

        def recording_pushforward(self, u):
            shapes.append(np.shape(u))
            return pushforward(self, u)

        def recording_covariant_fd(*args):
            steps.append(np.shape(args[3]))
            return covariant_fd(*args)

        monkeypatch.setattr(hs.Immersion, "pushforward", recording_pushforward)
        monkeypatch.setattr(hs, "_covariant_fd", recording_covariant_fd)
        hs.analyze_points(M, U)
        assert shapes == [(m, 11, 5)]
        assert steps == [(m, 5, 2, 6)]


def _per_row_params(family):
    """Four parameter values per family, one per chart-point row, as arrays."""
    if family in hs.THREE_CURVATURE_FAMILIES:
        return dict(r=np.array([0.3, 0.6, 1.0, 0.45]))
    k = np.array([0.5, 0.6, 0.8, 0.3])
    return dict(k=k, l=np.sqrt(1.0 - k * k))


def _row_kw(kw, i):
    return {name: float(v[i]) for name, v in kw.items()}


class TestPerRowParameters:
    """An immersion with one family parameter per chart-point row charts
    and analyses each row as the immersion of that row's floats does."""

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_pushforward_rows_equal_single_value_immersions(self, family):
        kw = _per_row_params(family)
        M = hs.make_example(family, **kw)
        assert M.rows == 4
        rng = np.random.default_rng(41)
        U = np.stack([hs.random_chart_point(rng) for _ in range(4)])
        for width in (11, 2, 16):  # the analysis, transport and nested stencils
            stencil = U[:, None, :] + 1e-3 * rng.standard_normal((4, width, 5))
            p, q, T = M.pushforward(stencil)
            assert T.shape == (4, width, 5, 6)
            for i in range(4):
                single = hs.make_example(family, **_row_kw(kw, i))
                assert M[i].params == single.params
                for a, b in zip((p[i], q[i], T[i]), single.pushforward(stencil[i])):
                    npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", hs.FAMILIES)
    def test_analysis_rows_equal_single_value_analyses(self, family):
        kw = _per_row_params(family)
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(42)
        U = np.stack([hs.random_chart_point(rng) for _ in range(4)])
        batch = hs.analyze_points(M, U)
        for i, d in enumerate(batch):
            e = hs.analyze_point(hs.make_example(family, **_row_kw(kw, i)), U[i])
            assert (d.immersion.family, d.immersion.params) == (family, e.immersion.params)
            _assert_same_point_data(dataclasses.replace(d, immersion=e.immersion), e)
        # a slice keeps its rows' parameters, as arrays
        npt.assert_array_equal(batch[1:3].immersion.params[0],
                               next(iter(kw.values()))[1:3])

    def test_row_count_mismatch_raises(self):
        M = hs.make_example("m2", r=np.array([0.3, 0.6, 1.0]))
        rng = np.random.default_rng(43)
        U = np.stack([hs.random_chart_point(rng) for _ in range(4)])
        with pytest.raises(DomainError, match="3 rows"):
            hs.analyze_points(M, U)
        with pytest.raises(DomainError, match="3 rows"):
            M.pushforward(U[0])  # a single chart point has no rows

    @pytest.mark.parametrize("kw,message", [
        (dict(r=[0.5, 0.0, 1.5]), "r must lie in (0, 1]"),
        (dict(r=[0.5, math.nan]), "r must lie in (0, 1]"),
        (dict(k=[0.6, 1.2], l=[0.8, 0.3]), "k and l must lie in (0, 1)"),
        (dict(k=[0.6, 0.5], l=[0.8, 0.5]), "k and l must satisfy k^2 + l^2 = 1"),
        # the first failing row decides, as validating row by row would
        (dict(k=[0.6, 0.5, 1.2], l=[0.8, 0.5, 0.3]), "k and l must satisfy k^2 + l^2 = 1"),
        (dict(k=[0.6, 1.2, 0.5], l=[0.8, 0.3, 0.5]), "k and l must lie in (0, 1)"),
        (dict(k=[0.6, 0.8], l=0.8), "k and l must be two floats or two arrays"),
        (dict(r=[[0.5]]), "a float or a 1-D array"),
    ])
    def test_array_validation(self, kw, message):
        family = "m1" if "r" in kw else "m4"
        with pytest.raises(DomainError, match=re.escape(message)):
            hs.make_example(family, **kw)

    def test_parameters_are_read_only_copies(self):
        rs = np.array([0.3, 0.6])
        M = hs.make_example("m3", r=rs)
        rs[0] = 0.9  # the caller reuses its array
        assert M.params[0][0] == 0.3 and not M.params[0].flags.writeable
        assert isinstance(M[0].params[0], float)

    @pytest.mark.parametrize("family", hs.THREE_CURVATURE_FAMILIES)
    def test_moduli_residuals_read_each_rows_r(self, family):
        # the further points of a hypersurface suite, with two values of r
        rs = np.array([0.6, 1.0, 0.6])
        rng = np.random.default_rng(44)
        U = np.stack([hs.random_chart_point(rng) for _ in range(3)])
        data = hs.analyze_points(hs.make_example(family, r=rs), U)
        batched = [dataclasses.astuple(f(data))
                   for f in (hs.theta_r_consistency, hs.leaf_geometry)]
        for i in range(3):
            row = hs.analyze_point(hs.make_example(family, r=float(rs[i])), U[i])
            single = [dataclasses.astuple(f(row))
                      for f in (hs.theta_r_consistency, hs.leaf_geometry)]
            assert single == [tuple(field[i] for field in b) for b in batched]
            # the residuals that read r: r_residual, sphere2_metric_residual
            assert single[0][1] < 1e-6 and single[1][1] < 1e-9


class TestSpectra:
    def test_m1_expected_values(self):
        # closed forms at r = 0.6
        spec = hs.expected_spectrum("m1", r=0.6)
        lam = 0.8 / 1.2 - math.sqrt(2.28) / (1.2 * SQRT3)
        bet = 0.8 / 1.2 + math.sqrt(2.28) / (1.2 * SQRT3)
        npt.assert_allclose(spec, np.sort([0.0, lam, lam, bet, bet]), atol=1e-15)
        # the product of the two double curvatures is exactly -1/12
        assert lam * bet == pytest.approx(-1.0 / 12.0, abs=1e-15)

    def test_m1_at_r1_value(self):
        spec = hs.expected_spectrum("m1", r=1.0)
        npt.assert_allclose(
            spec,
            np.sort([0.0, -SQRT3 / 6.0, -SQRT3 / 6.0, SQRT3 / 6.0, SQRT3 / 6.0]),
            atol=1e-15,
        )

    def test_m4_symmetric_parameter_values(self):
        k = math.sqrt(0.5)
        spec = hs.expected_spectrum("m4", k=k, l=k)
        small = (3.0 * k - math.sqrt(6.0)) / (6.0 * k)
        npt.assert_allclose(
            np.sort(np.abs(spec)),
            np.sort([0.0, abs(small), abs(small), 1.0 + abs(small), 1.0 + abs(small)]),
            atol=1e-12,
        )
        assert abs(small) == pytest.approx(0.0773502691896258, abs=1e-15)

    @pytest.mark.parametrize("family,kw", [
        ("m1", dict(r=0.6)), ("m2", dict(r=0.6)), ("m3", dict(r=0.6)),
        ("m1", dict(r=1.0)),
    ])
    def test_computed_three_curvature_spectra(self, family, kw):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(7)
        expected = hs.expected_spectrum(family, **kw)
        for _ in range(3):
            rep = hs.spectral_report(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert hs.spectra_match(rep.eigenvalues, expected) <= 1e-6
            assert rep.multiplicities == (2, 1, 2)

    @pytest.mark.parametrize("family,kw", [
        ("m4", dict(k=0.6, l=0.8)),
        ("m5", dict(k=0.6, l=0.8)),
        ("m6", dict(k=math.sqrt(0.5), l=math.sqrt(0.5))),
    ])
    def test_computed_five_curvature_spectra(self, family, kw):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(8)
        expected = hs.expected_spectrum(family, **kw)
        for _ in range(3):
            rep = hs.spectral_report(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert hs.spectra_match(rep.eigenvalues, expected) <= 1e-6
            assert rep.multiplicities == (1, 1, 1, 1, 1)

    def test_swap_image_spectra_agree_with_base(self):
        rng = np.random.default_rng(9)
        m1 = hs.make_example("m1", r=0.45)
        m2 = hs.make_example("m2", r=0.45)
        u = hs.random_chart_point(rng)
        s1 = hs.spectral_report(hs.analyze_point(m1, u)).eigenvalues
        s2 = hs.spectral_report(hs.analyze_point(m2, u)).eigenvalues
        assert hs.spectra_match(s1, s2) <= 1e-8

    def test_cluster_tolerances(self):
        vals = np.array([1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-8, 3.0])
        clusters = hs.cluster_eigenvalues(vals, rel_tol=1e-6, abs_floor=1e-9)
        assert [len(c) for c in clusters] == [2, 2, 1]


def _cluster_loop(values, rel_tol, abs_floor):
    """Clusters of the sorted values, one value at a time: a value joins the
    current cluster when its gap to the cluster's last value is at most the
    threshold (so a NaN gap or threshold opens a new cluster)."""
    values = np.sort(np.asarray(values, dtype=float))
    threshold = max(rel_tol * float(np.max(np.abs(values))), abs_floor)
    clusters = [[values[0]]]
    for v in values[1:]:
        if v - clusters[-1][-1] <= threshold:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters


def _spectral_report_loop(data):
    """The spectral report of a one-point view, cluster by cluster."""
    t = frames.get_tables()
    evals, evecs = np.linalg.eigh(data.shape)
    clusters = _cluster_loop(evals, 1e-6, 1e-9)
    mult = tuple(len(c) for c in clusters)
    means = tuple(float(np.mean(c)) for c in clusters)
    theta = theta_sine = None
    offsets = np.concatenate([[0], np.cumsum(mult)])
    for idx in range(len(mult) - 1, -1, -1):
        if mult[idx] == 2:
            cols = evecs[:, offsets[idx]:offsets[idx] + 2]
            x1 = cols[:, 0] @ data.tangent_frame
            x2 = cols[:, 1] @ data.tangent_frame
            theta = float(abs(x1 @ t.g @ (t.J @ x2)))
            jx1 = t.J @ x1
            theta_sine = float(frames.g_norm(t, jx1 - float(jx1 @ t.g @ x2) * x2))
            break
    trace = float(np.sum(evals))
    return hs.SpectralReport(evals, mult, means, trace, trace / 5.0,
                             2 if data.c <= hs.DIM_TOL else 4, theta, theta_sine)


# (values, rel_tol, abs_floor) that probe the edges of the clustering rule
CRAFTED_SPECTRA = [
    ([1.0, 1.0, 1.0, 2.0, 2.0], 1e-6, 1e-9),            # exact ties
    ([0.0, 0.5, 1.0, 2.0, 4.0], 0.125, 1e-9),           # gaps equal to the threshold 0.5
    ([-0.5, 0.0, 1.0, 2.0, 4.0], 0.125, 1e-9),
    ([1e-12, 2e-12, 3e-12, 5e-10, 2e-9], 1e-6, 1e-9),   # below the absolute floor
    ([0.0, 0.0, 0.0, 0.0, 0.0], 1e-6, 0.0),
    ([0.0, math.nan, 1.0, 1.0, 2.0], 1e-6, 1e-9),       # a NaN entry
    ([-3.0, -1.0, -1.0 + 1e-9, 2.0, 2.0 + 1e-8], 1e-6, 1e-9),
]


class TestBatchedSpectra:
    """The spectral report of a batch against the reports of its one-point
    views, and the vectorised clustering against the one-value-at-a-time
    rule."""

    @pytest.mark.parametrize("values,rel_tol,abs_floor", CRAFTED_SPECTRA)
    def test_clustering_matches_loop(self, values, rel_tol, abs_floor):
        expected = _cluster_loop(values, rel_tol, abs_floor)
        got = hs.cluster_eigenvalues(values, rel_tol, abs_floor)
        assert [len(c) for c in got] == [len(c) for c in expected]
        npt.assert_array_equal(np.concatenate(got), np.concatenate(expected))
        starts = hs._cluster_starts(np.sort(np.asarray(values)), rel_tol, abs_floor)
        assert np.count_nonzero(starts) == len(expected)

    def test_clustering_rows_are_independent(self):
        rows = np.sort(np.array([v for v, rel, floor in CRAFTED_SPECTRA if rel == 1e-6]),
                       axis=-1)
        starts = hs._cluster_starts(rows, 1e-6, 1e-9)
        for row, row_starts in zip(rows, starts):
            sizes = [len(c) for c in _cluster_loop(row, 1e-6, 1e-9)]
            assert np.diff(np.flatnonzero(np.append(row_starts, True))).tolist() == sizes

    @pytest.mark.parametrize("family,kw", [
        ("m1", dict(r=0.6)), ("m1", dict(r=1.0)), ("m2", dict(r=0.6)), ("m2", dict(r=1.0)),
        ("m3", dict(r=0.6)), ("m3", dict(r=1.0)),
        ("m4", dict(k=0.6, l=0.8)), ("m5", dict(k=0.6, l=0.8)), ("m6", dict(k=0.8, l=0.6)),
    ])
    def test_batch_rows_equal_single_points_bitwise(self, family, kw):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(41)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(6)]))
        rep = hs.spectral_report(data)
        assert rep.eigenvalues.shape == (6, 5)
        three = family in hs.THREE_CURVATURE_FAMILIES
        names = hs.classify_normal_action(data)
        for i, row in enumerate(data):
            single = hs.spectral_report(row)
            assert single.multiplicities == ((2, 1, 2) if three else (1, 1, 1, 1, 1))
            assert (single.theta is None) == (not three)
            for want in (single, _spectral_report_loop(row)):
                for f in dataclasses.fields(hs.SpectralReport):
                    got, expected = getattr(rep[i], f.name), getattr(want, f.name)
                    assert type(got) is type(expected), f.name
                    if f.name == "eigenvalues":
                        assert got.tobytes() == expected.tobytes()
                    else:
                        assert got == expected, f.name
            assert names[i] == hs.classify_normal_action(row)
        if three:
            batched = dataclasses.astuple(hs.theta_r_consistency(data))
            for i, row in enumerate(data):
                assert dataclasses.astuple(hs.theta_r_consistency(row)) == tuple(
                    field[i] for field in batched)

    def test_slice_is_a_batch(self):
        M = hs.make_example("m2", r=0.6)
        rng = np.random.default_rng(42)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(4)]))
        rep = hs.spectral_report(data)
        part = rep[1:3]
        assert part.eigenvalues.shape == (2, 5)
        assert part[1].eigenvalues.tobytes() == rep[2].eigenvalues.tobytes()
        assert part[1].cluster_means == rep[2].cluster_means

    def test_degenerate_row_is_named(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(43)
        U = np.stack([hs.random_chart_point(rng) for _ in range(3)])
        data = hs.analyze_points(M, U)
        shape = data.shape.copy()
        shape[1] = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
        rep = hs.spectral_report(dataclasses.replace(data, shape=shape))
        assert rep[1].multiplicities == (1, 1, 1, 1, 1)
        assert rep[1].theta is None and math.isnan(rep.theta[1])
        assert rep[0].multiplicities == rep[2].multiplicities == (2, 1, 2)
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape(f"eigenspaces at u={U[1].tolist()}")):
            hs.theta_r_consistency(dataclasses.replace(data, shape=shape))

    def test_normal_action_batch_marks_undefined_rows(self):
        M = hs.make_example("m3", r=0.6)
        rng = np.random.default_rng(44)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(3)]))
        c = data.c.copy()
        c[2] = 0.5
        names = hs.classify_normal_action(dataclasses.replace(data, c=c))
        assert names.tolist() == [hs.REFLECT, hs.REFLECT, hs.UNDEFINED]
        with pytest.raises(PreconditionError):
            hs.classify_normal_action(dataclasses.replace(data, c=c)[2])


class TestNormalAction:
    @pytest.mark.parametrize("family,expected", [
        ("m1", hs.PLUS), ("m2", hs.MINUS), ("m3", hs.REFLECT),
    ])
    def test_trichotomy(self, family, expected):
        rng = np.random.default_rng(10)
        for r in (0.3, 0.8, 1.0):
            M = hs.make_example(family, r=r)
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            assert hs.classify_normal_action(d) == expected
            assert hs.normal_action_residual(d, expected) <= 1e-6

    def test_distribution_two_dimensional_everywhere(self):
        rng = np.random.default_rng(11)
        for family, kw in [("m1", dict(r=0.5)), ("m4", dict(k=0.8, l=0.6)),
                           ("m6", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            for _ in range(5):
                d = hs.analyze_point(M, hs.random_chart_point(rng))
                assert d.c <= 1e-6
                rep = hs.spectral_report(d)
                assert rep.dim_distribution == 2
                assert d.a ** 2 + d.b ** 2 + d.c ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_requires_two_dimensional_distribution(self):
        class Fake:
            a, b, c = 0.5, -SQRT3 / 2.0, 0.5

        with pytest.raises(PreconditionError):
            hs.classify_normal_action(Fake())


class TestIdentityResiduals:
    def test_point_data_keeps_its_own_chart_point(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(25)
        u = hs.random_chart_point(rng)
        x5 = _unit(rng.standard_normal(5))
        y5 = _unit(rng.standard_normal(5))
        d = hs.analyze_point(M, u)
        before = dataclasses.astuple(hs.stencil_residuals(d, x5, y5, y5))
        kept = u.copy()
        u += 0.3  # the caller reuses its array
        assert d.immersion is M
        npt.assert_array_equal(d.u, kept)
        assert not d.u.flags.writeable
        assert dataclasses.astuple(hs.stencil_residuals(d, x5, y5, y5)) == before

    def test_reeb_transport(self):
        rng = np.random.default_rng(12)
        for family, kw in [("m1", dict(r=0.6)), ("m4", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            for _ in range(3):
                x5 = _unit(rng.standard_normal(5))
                assert hs.stencil_residuals(d, x5, x5, x5).transport <= 1e-5

    def test_codazzi(self):
        rng = np.random.default_rng(13)
        for family, kw in [("m1", dict(r=0.6)), ("m4", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            x5 = _unit(rng.standard_normal(5))
            y5 = _unit(rng.standard_normal(5))
            assert hs.stencil_residuals(d, x5, y5, y5).codazzi <= 1e-6
            # both sides are antisymmetric, so equal arguments give zero
            assert hs.stencil_residuals(d, x5, x5, x5).codazzi <= 1e-12

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_codazzi_agrees_with_the_weingarten_route(self, family, kw):
        # the nested difference of the normal against the shape operator
        # of full analyses at the four neighbours; the gap is the
        # reference's own error (up to 5.1e-7 at these points), while a
        # sign or transpose slip in either derivation shows as an O(1) gap
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(34)
        t = frames.get_tables()
        for _ in range(2):
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            x5 = _unit(rng.standard_normal(5))
            y5 = _unit(rng.standard_normal(5))
            gap = _shape_derivative(d, x5, y5) - _shape_derivative_weingarten(
                d, x5, y5, hs.NESTED_H)
            assert frames.g_norm(t, gap) <= 1e-6

    def test_gauss(self):
        rng = np.random.default_rng(14)
        M = hs.make_example("m1", r=1.0)
        u = hs.random_chart_point(rng)
        d = hs.analyze_point(M, u)
        x5 = _unit(rng.standard_normal(5))
        y5 = _unit(rng.standard_normal(5))
        z5 = _unit(rng.standard_normal(5))
        assert hs.stencil_residuals(d, x5, y5, z5).gauss <= 1e-3
        assert hs.stencil_residuals(d, x5, x5, z5).gauss <= 1e-12

    @pytest.mark.parametrize("family,kw", [("m1", dict(r=0.6)), ("m3", dict(r=0.6)),
                                           ("m6", dict(k=0.8, l=0.6))])
    def test_covariant_fd_converges_at_second_order(self, family, kw):
        # a field Z with constant frame coefficients z has the exact ambient
        # derivative D_X Z = frames.nabla(X, z), so the step's error is its
        # central-difference error alone and quarters when h halves
        t = frames.get_tables()
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(17)
        d = hs.analyze_point(M, hs.random_chart_point(rng))
        vel, z = rng.standard_normal(5), rng.standard_normal(6)
        X = vel @ d.push_coords
        exact = hs._tangential(frames.nabla(t, X, z), d.xi)
        errors = []
        for h in (1e-3, 5e-4, 2.5e-4):
            ends = M.pushforward(hs._segments(d.u, vel, h))[:2]
            step = hs._covariant_fd((d.p, d.q), d.xi, ends, np.stack([z, z]), X, z, h)
            errors.append(frames.g_norm(t, step - exact))
        assert errors[0] > 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(coarse / fine - 4.0) <= 0.01

    def test_hopf_identity(self):
        rng = np.random.default_rng(15)
        for family, kw in [("m1", dict(r=0.6)), ("m3", dict(r=0.8))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            eta = d.eta / np.linalg.norm(d.eta)
            for _ in range(3):
                v = rng.standard_normal(5)
                x5 = _unit(v - (v @ eta) * eta)
                w = rng.standard_normal(5)
                y5 = _unit(w - (w @ eta) * eta)
                assert hs.hopf_identity_residual(d, x5, y5) <= 1e-5

    def test_hopf_identity_on_principal_directions(self):
        # equal eigenvector arguments reduce to the single-branch identity
        M = hs.make_example("m1", r=0.6)
        u = hs.random_chart_point(np.random.default_rng(21))
        d = hs.analyze_point(M, u)
        evals, evecs = np.linalg.eigh(d.shape)
        for idx in range(5):
            x5 = evecs[:, idx]
            if abs(float(x5 @ d.eta)) > 1e-8:
                continue
            assert hs.hopf_identity_residual(d, x5, x5) <= 1e-5

    def test_hopf_identity_rejects_non_orthogonal_arguments(self):
        M = hs.make_example("m1", r=0.6)
        u = hs.random_chart_point(np.random.default_rng(16))
        d = hs.analyze_point(M, u)
        x5 = d.eta / np.linalg.norm(d.eta)
        with pytest.raises(PreconditionError):
            hs.hopf_identity_residual(d, x5, x5)


def _shape_derivative(d, x5, y5):
    """(D_X A) Y - (D_Y A) X at a one-point view, as the Codazzi residual
    takes it: minus the normal field of `_nested_fd`."""
    vels, nested = hs._nested_points(d, x5, y5)
    return -hs._nested_fd(d, x5, y5, y5, vels, hs._charted(d, nested))[1]


def _shape_derivative_weingarten(d, x5, y5, h):
    """(D_X A) Y - (D_Y A) X at a one-point view, from full analyses at its
    four neighbours u +- h X and u +- h Y: A Y there is differenced along
    X, and A X along Y."""
    t = frames.get_tables()
    vels = np.stack([x5 @ d.chart_weights, y5 @ d.chart_weights])
    ends = hs._segments(d.u, vels, h)
    e = hs.analyze_points(d.immersion, ends.reshape(-1, 5), ref_normal=d.xi)
    frame, A = e.tangent_frame.reshape(2, 2, 5, 6), e.shape.reshape(2, 2, 5, 5)
    # the chart-constant extensions of Y (along X) and X (along Y)
    w6 = np.einsum("da,dkac->dkc", vels[::-1], e.push_coords.reshape(2, 2, 5, 6))
    comps = np.einsum("dkic,cf,dkf->dki", frame, t.g, w6)
    shaped = np.einsum("dki,dkij,dkjc->dkc", comps, A, frame)
    X, Y = d.from_components(x5), d.from_components(y5)
    steps = hs._covariant_fd((d.p, d.q), d.xi, (e.p.reshape(2, 2, 4), e.q.reshape(2, 2, 4)),
                             shaped, np.stack([X, Y]),
                             np.stack([d.apply_shape(Y), d.apply_shape(X)]), h)
    return steps[0] - steps[1]


def _hopf_directions(data, rng):
    """Unit directions orthogonal to the structure vector, one per row."""
    eta = data.eta / np.linalg.norm(data.eta, axis=-1, keepdims=True)
    v = rng.standard_normal(eta.shape)
    v -= np.sum(v * eta, axis=-1, keepdims=True) * eta
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestBatchedResiduals:
    """Each residual on a batch of point data against the same residual on
    the batch's one-point views; all of them agree bitwise."""

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_batch_rows_equal_single_rows_bitwise(self, family, kw):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(31)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(4)]))
        X5, Y5, Z5 = (v / np.linalg.norm(v, axis=-1, keepdims=True)
                      for v in rng.standard_normal((3, 4, 5)))
        XP, YP = _hopf_directions(data, rng), _hopf_directions(data, rng)
        batched = hs.hopf_identity_residual(data, XP, YP)
        assert batched.shape == (4,)
        for i, row in enumerate(data):
            single = hs.hopf_identity_residual(row, XP[i], YP[i])
            assert isinstance(single, float)
            assert batched[i] == single, i
        joint = hs.stencil_residuals(data, X5, Y5, Z5)
        for field in dataclasses.astuple(joint):
            assert field.shape == (4,)
        for i, row in enumerate(data):
            single = dataclasses.astuple(hs.stencil_residuals(row, X5[i], Y5[i], Z5[i]))
            assert all(isinstance(v, float) for v in single)
            assert single == tuple(field[i] for field in dataclasses.astuple(joint)), i
        # each one-identity residual is its field of the joint residuals
        npt.assert_array_equal(hs.reeb_transport_residual(data, X5), joint.transport)
        npt.assert_array_equal(hs.gauss_residual(data, X5, Y5, Z5), joint.gauss)
        npt.assert_array_equal(hs.codazzi_residual(data, X5, Y5), joint.codazzi)
        if family in hs.THREE_CURVATURE_FAMILIES:
            batched = dataclasses.astuple(hs.leaf_geometry(data))
            for i, row in enumerate(data):
                assert dataclasses.astuple(hs.leaf_geometry(row)) == tuple(
                    field[i] for field in batched)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_induced_curvature_reuses_the_point_data(self, monkeypatch, family, kw):
        # the nested stencil of Gauss and Codazzi takes the chart data and
        # normal of the point itself from the point data, which must equal a
        # fresh chart call bitwise (the normal up to its orientation); the
        # one chart call of the three stencil residuals then has 18 points a
        # row, the transport's 2 and the nested stencil's 16
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(32)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(4)]))
        p, q, T = M.pushforward(data.u)
        npt.assert_array_equal(p, data.p)
        npt.assert_array_equal(q, data.q)
        npt.assert_array_equal(T, data.push_coords)
        xi = hs._unit_normal(T)
        assert all((n == x).all() or (n == -x).all() for n, x in zip(xi, data.xi))

        shapes = []
        pushforward = hs.Immersion.pushforward

        def recording_pushforward(self, u):
            shapes.append(np.shape(u))
            return pushforward(self, u)

        monkeypatch.setattr(hs.Immersion, "pushforward", recording_pushforward)
        X5, Y5, Z5 = (v / np.linalg.norm(v, axis=-1, keepdims=True)
                      for v in rng.standard_normal((3, 4, 5)))
        hs.stencil_residuals(data, X5, Y5, Z5)
        assert shapes == [(4, 18, 5)]

    def test_hopf_error_names_the_failing_row(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(32)
        U = np.stack([hs.random_chart_point(rng) for _ in range(4)])
        data = hs.analyze_points(M, U)
        XP, YP = _hopf_directions(data, rng), _hopf_directions(data, rng)
        hopf = data.hopf_residual.copy()
        hopf[2] = 1.0
        with pytest.raises(PreconditionError,
                           match=re.escape(f"Hopf condition at u={U[2].tolist()}")):
            hs.hopf_identity_residual(dataclasses.replace(data, hopf_residual=hopf), XP, YP)
        XP[1] = data.eta[1] / np.linalg.norm(data.eta[1])
        with pytest.raises(PreconditionError,
                           match=re.escape(f"structure vector at u={U[1].tolist()}")):
            hs.hopf_identity_residual(data, XP, YP)


class TestModuliRelations:
    def test_theta_at_r1(self):
        M = hs.make_example("m1", r=1.0)
        tc = hs.theta_r_consistency(
            hs.analyze_point(M, hs.random_chart_point(np.random.default_rng(17))))
        assert tc.theta == pytest.approx(1.0, abs=1e-6)
        assert tc.r_residual <= 1e-6
        assert tc.product_residual <= 1e-8

    def test_theta_r_well_conditioned_at_r1(self):
        # theta = 1 here; sqrt(1 - theta^2) of a rounded theta would turn its
        # last bit into a residual near 1e-8
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for family in ("m1", "m2", "m3"):
                M = hs.make_example(family, r=1.0)
                u = hs.random_chart_point(rng)
                tc = hs.theta_r_consistency(hs.analyze_point(M, u))
                assert max(tc.r_residual, tc.spectrum_residual) < 1e-10, (seed, family)

    def test_theta_at_r06(self):
        # inverting r = sqrt(3) theta / sqrt(1 + 2 theta^2) at r = 0.6
        M = hs.make_example("m1", r=0.6)
        data = hs.analyze_point(M, hs.random_chart_point(np.random.default_rng(18)))
        tc = hs.theta_r_consistency(data)
        assert tc.theta == pytest.approx(math.sqrt(0.36 / 2.28), abs=1e-6)
        rep = hs.spectral_report(data)
        assert rep.theta_sine == pytest.approx(math.sqrt(1.0 - rep.theta ** 2), abs=1e-12)
        assert tc.r_residual <= 1e-6
        assert tc.spectrum_residual <= 1e-6
        assert tc.product_residual <= 1e-8

    def test_degenerate_spectrum_error_names_the_chart_point(self):
        M = hs.make_example("m1", r=0.6)
        d = hs.analyze_point(M, hs.random_chart_point(np.random.default_rng(33)))
        simple = dataclasses.replace(d, shape=np.diag([0.0, 1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape(f"eigenspaces at u={d.u.tolist()}")):
            hs.theta_r_consistency(simple)
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape(f"eigenspace at u={d.u.tolist()}")):
            hs.leaf_geometry(simple)

    def test_rejects_torus_families(self):
        M = hs.make_example("m4", k=0.6, l=0.8)
        with pytest.raises(PreconditionError):
            hs.theta_r_consistency(hs.analyze_point(M, ORIGIN5))

    def test_minimality_exactly_at_r1(self):
        rng = np.random.default_rng(19)
        for family in ("m1", "m2", "m3"):
            M = hs.make_example(family, r=1.0)
            rep = hs.spectral_report(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert abs(rep.trace) <= 1e-6
            M = hs.make_example(family, r=0.6)
            rep = hs.spectral_report(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert abs(rep.trace) >= 0.1

    def test_leaf_geometry(self):
        rng = np.random.default_rng(20)
        for family in ("m1", "m3"):
            M = hs.make_example(family, r=0.6)
            lg = hs.leaf_geometry(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert lg.sphere3_metric_residual <= 1e-9
            assert lg.sphere2_metric_residual <= 1e-9
            assert lg.sphere3_sectional == pytest.approx(0.75, abs=1e-3)
            assert lg.sphere2_curvature_residual <= 1e-6
