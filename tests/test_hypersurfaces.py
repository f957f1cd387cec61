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


def _theta_r(data):
    """theta_r_consistency of the point data from its own spectral report."""
    return hs.theta_r_consistency(data, hs.spectral_report(data))


def _leaf_geometry(data):
    """leaf_geometry of the point data from its own stencil along its leaf
    directions and its own spectral report."""
    x5, y5 = hs.leaf_directions(data)
    return hs.leaf_geometry(data, hs.stencil_residuals(data, x5, y5, y5).sectional,
                            hs.spectral_report(data))


def _row_bytes(result, rows=slice(None)):
    """The bytes of the rows of each field of a result dataclass."""
    return tuple(v[rows].tobytes() for v in dataclasses.astuple(result))


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
        d = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(10)]))
        uvec = d.structure_vector
        npt.assert_allclose(frames.g_inner(t, d.xi, d.xi), 1.0, rtol=0.0, atol=1e-9)
        npt.assert_allclose(frames.g_inner(t, uvec, uvec), 1.0, rtol=0.0, atol=1e-9)
        assert np.max(np.abs(frames.g_inner(t, uvec, d.xi))) <= 1e-9
        assert np.max(np.abs(frames.g_inner(t, d.tangent_frame, d.xi[:, None, :]))) <= 1e-9

    def test_hopf_at_r1(self):
        M = hs.make_example("m1", r=1.0)
        rng = np.random.default_rng(3)
        d = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(5)]))
        assert np.max(d.hopf_residual) <= 1e-6
        assert np.max(np.abs(d.alpha)) <= 1e-6

    def test_shape_symmetry(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(4)
        d = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(5)]))
        assert np.max(d.symmetry_residual) <= 1e-6

    def test_almost_contact_relations(self):
        rng = np.random.default_rng(5)
        for family, kw in [("m1", dict(r=0.7)), ("m5", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            phi, eta = d.phi[0], d.eta[0]
            assert np.max(np.abs(phi @ phi + np.eye(5) - np.outer(eta, eta))) <= 1e-8
            assert np.max(np.abs(eta @ phi)) <= 1e-8
            assert np.max(np.abs(phi + phi.T)) <= 1e-8


def _assert_same_point_data(d, e):
    """Every field of two batches of point data bitwise equal, the immersion
    the same object."""
    assert d.immersion is e.immersion
    for field in dataclasses.fields(hs.HypersurfacePointData)[1:]:
        a, b = getattr(d, field.name), getattr(e, field.name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name


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
        for i, u in enumerate(U):
            row = batch[i:i + 1]
            assert len(row) == 1
            _assert_same_point_data(row, hs.analyze_point(M, u))
        # the batch mixes normals the orientation rule flips with normals
        # it keeps, so the rule is applied row by row
        raw = hs._unit_normal(hs._chart_data(M, U)[2])
        flipped = [bool(np.array_equal(xi, -x)) for xi, x in zip(batch.xi, raw)]
        assert any(flipped) and not all(flipped)

    def test_point_data_keep_their_own_chart_points(self):
        M, U = self._batch("m4", dict(k=0.6, l=0.8))
        kept = U.copy()
        batch = hs.analyze_points(M, U)
        U += 0.3  # the caller reuses its array
        npt.assert_array_equal(batch.u, kept)
        assert not batch.u.flags.writeable and not batch[2:4].u.flags.writeable

    def test_rows_are_taken_by_slices_only(self):
        # an integer index raises, so the point data and its spectral report
        # cannot be iterated row by row (the legacy protocol indexes 0, 1, ...)
        M, U = self._batch("m3", dict(r=0.6), n=3)
        batch = hs.analyze_points(M, U)
        rep = hs.spectral_report(batch)
        for index in (0, -1, np.int64(1)):
            with pytest.raises(TypeError, match="slice"):
                batch[index]
            with pytest.raises(TypeError, match="slice"):
                rep[index]
        with pytest.raises(TypeError):
            list(batch)
        with pytest.raises(TypeError):
            list(rep)
        part = batch[1:]
        assert len(part) == 2 and part.xi.shape == (2, 6)
        assert rep[1:].eigenvalues.shape == (2, 5)

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
        for i in range(4):
            d = batch[i:i + 1]
            e = hs.analyze_point(hs.make_example(family, **_row_kw(kw, i)), U[i])
            assert d.immersion.family == family
            assert [x.tolist() for x in d.immersion.params] == [[x] for x in e.immersion.params]
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
        batched = [f(data) for f in (_theta_r, _leaf_geometry)]
        for i in range(3):
            row = hs.analyze_point(hs.make_example(family, r=float(rs[i])), U[i])
            single = [f(row) for f in (_theta_r, _leaf_geometry)]
            assert [_row_bytes(s) for s in single] == [_row_bytes(b, slice(i, i + 1))
                                                       for b in batched]
            # the residuals that read r
            assert single[0].r_residual[0] < 1e-6
            assert single[1].sphere2_metric_residual[0] < 1e-9


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
        rep = hs.spectral_report(
            hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(3)])))
        assert np.max(hs.spectra_match(rep.eigenvalues, expected)) <= 1e-6
        assert rep.multiplicities.tolist() == [[2, 1, 2, 0, 0]] * 3

    @pytest.mark.parametrize("family,kw", [
        ("m4", dict(k=0.6, l=0.8)),
        ("m5", dict(k=0.6, l=0.8)),
        ("m6", dict(k=math.sqrt(0.5), l=math.sqrt(0.5))),
    ])
    def test_computed_five_curvature_spectra(self, family, kw):
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(8)
        expected = hs.expected_spectrum(family, **kw)
        rep = hs.spectral_report(
            hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(3)])))
        assert np.max(hs.spectra_match(rep.eigenvalues, expected)) <= 1e-6
        assert rep.multiplicities.tolist() == [[1, 1, 1, 1, 1]] * 3

    def test_swap_image_spectra_agree_with_base(self):
        rng = np.random.default_rng(9)
        m1 = hs.make_example("m1", r=0.45)
        m2 = hs.make_example("m2", r=0.45)
        u = hs.random_chart_point(rng)
        s1 = hs.spectral_report(hs.analyze_point(m1, u)).eigenvalues
        s2 = hs.spectral_report(hs.analyze_point(m2, u)).eigenvalues
        assert hs.spectra_match(s1, s2)[0] <= 1e-8

    def test_cluster_tolerances(self):
        assert (hs.CLUSTER_REL_TOL, hs.CLUSTER_ABS_FLOOR) == (1e-6, 1e-9)
        vals = np.array([1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-8, 3.0])
        clusters = hs.cluster_eigenvalues(vals)
        assert [len(c) for c in clusters] == [2, 2, 1]
        # a gap above 3e-6, the relative threshold of these values, splits
        clusters = hs.cluster_eigenvalues(np.array([1.0, 2.0, 2.0 + 4e-6, 3.0, 3.0]))
        assert [len(c) for c in clusters] == [1, 1, 1, 2]


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
    """The spectral report of a batch of one row, cluster by cluster."""
    t = frames.get_tables()
    evals, evecs = np.linalg.eigh(data.shape[0])
    clusters = _cluster_loop(evals, hs.CLUSTER_REL_TOL, hs.CLUSTER_ABS_FLOOR)
    mult = [len(c) for c in clusters]
    means = [float(np.mean(c)) for c in clusters]
    theta = theta_sine = math.nan
    offsets = np.concatenate([[0], np.cumsum(mult)])
    for idx in range(len(mult) - 1, -1, -1):
        if mult[idx] == 2:
            cols = evecs[:, offsets[idx]:offsets[idx] + 2]
            x1 = cols[:, 0] @ data.tangent_frame[0]
            x2 = cols[:, 1] @ data.tangent_frame[0]
            theta = float(abs(x1 @ t.g @ (t.J @ x2)))
            jx1 = t.J @ x1
            theta_sine = float(frames.g_norm(t, jx1 - float(jx1 @ t.g @ x2) * x2))
            break
    trace = float(np.sum(evals))
    pad = [0] * (5 - len(mult))
    return hs.SpectralReport(evals[None], np.array([mult + pad]),
                             np.array([means + pad], dtype=float), np.array([trace]),
                             np.array([trace / 5.0]),
                             np.array([2 if data.c[0] <= hs.DIM_TOL else 4]),
                             np.array([theta]), np.array([theta_sine]))


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
    """The spectral report of a batch against the reports of its rows, and
    the vectorised clustering against the one-value-at-a-time rule."""

    @pytest.mark.parametrize("values,rel_tol,abs_floor", CRAFTED_SPECTRA)
    def test_clustering_matches_loop(self, values, rel_tol, abs_floor):
        expected = _cluster_loop(values, rel_tol, abs_floor)
        starts = hs._cluster_starts(np.sort(np.asarray(values)), rel_tol, abs_floor)
        sizes = np.diff(np.flatnonzero(np.append(starts, True))).tolist()
        assert sizes == [len(c) for c in expected]
        if (rel_tol, abs_floor) == (hs.CLUSTER_REL_TOL, hs.CLUSTER_ABS_FLOOR):
            got = hs.cluster_eigenvalues(values)
            assert [len(c) for c in got] == sizes
            npt.assert_array_equal(np.concatenate(got), np.concatenate(expected))

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
        for i in range(6):
            rows = slice(i, i + 1)
            row = data[rows]
            single = hs.spectral_report(row)
            assert single.multiplicities.tolist() == (
                [[2, 1, 2, 0, 0]] if three else [[1, 1, 1, 1, 1]])
            assert np.isnan(single.theta[0]) == (not three)
            for want in (single, _spectral_report_loop(row)):
                for f in dataclasses.fields(hs.SpectralReport):
                    got, expected = getattr(rep[rows], f.name), getattr(want, f.name)
                    assert (got.shape, got.dtype) == (expected.shape, expected.dtype), f.name
                    assert got.tobytes() == expected.tobytes(), f.name
            assert names[rows].tolist() == hs.classify_normal_action(row).tolist()
        if three:
            batched = hs.theta_r_consistency(data, rep)
            for i in range(6):
                rows = slice(i, i + 1)
                assert _row_bytes(_theta_r(data[rows])) == _row_bytes(batched, rows)

    def test_slice_is_a_batch(self):
        M = hs.make_example("m2", r=0.6)
        rng = np.random.default_rng(42)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(4)]))
        rep = hs.spectral_report(data)
        part = rep[1:3]
        assert part.eigenvalues.shape == (2, 5)
        for f in dataclasses.fields(hs.SpectralReport):
            assert (getattr(part[1:], f.name).tobytes()
                    == getattr(rep[2:3], f.name).tobytes()), f.name

    def test_degenerate_row_is_named(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(43)
        U = np.stack([hs.random_chart_point(rng) for _ in range(3)])
        data = hs.analyze_points(M, U)
        shape = data.shape.copy()
        shape[1] = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
        rep = hs.spectral_report(dataclasses.replace(data, shape=shape))
        assert rep.multiplicities.tolist() == [[2, 1, 2, 0, 0], [1, 1, 1, 1, 1],
                                               [2, 1, 2, 0, 0]]
        assert math.isnan(rep.theta[1]) and math.isnan(rep.theta_sine[1])
        assert not np.any(np.isnan(rep.theta[::2]))
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape(f"eigenspaces at u={U[1].tolist()}")):
            _theta_r(dataclasses.replace(data, shape=shape))

    def test_normal_action_batch_marks_undefined_rows(self):
        M = hs.make_example("m3", r=0.6)
        rng = np.random.default_rng(44)
        data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(3)]))
        c = data.c.copy()
        c[2] = 0.5
        names = hs.classify_normal_action(dataclasses.replace(data, c=c))
        assert names.tolist() == [hs.REFLECT, hs.REFLECT, hs.UNDEFINED]
        # a batch of the one undefined row
        assert hs.classify_normal_action(
            dataclasses.replace(data, c=c)[2:]).tolist() == [hs.UNDEFINED]


class TestNormalAction:
    @pytest.mark.parametrize("family,expected", [
        ("m1", hs.PLUS), ("m2", hs.MINUS), ("m3", hs.REFLECT),
    ])
    def test_trichotomy(self, family, expected):
        rng = np.random.default_rng(10)
        for r in (0.3, 0.8, 1.0):
            M = hs.make_example(family, r=r)
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            assert hs.classify_normal_action(d).tolist() == [expected]
            assert hs.normal_action_residual(d, expected)[0] <= 1e-6

    def test_distribution_two_dimensional_everywhere(self):
        rng = np.random.default_rng(11)
        for family, kw in [("m1", dict(r=0.5)), ("m4", dict(k=0.8, l=0.6)),
                           ("m6", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            d = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(5)]))
            assert np.max(d.c) <= 1e-6
            assert hs.spectral_report(d).dim_distribution.tolist() == [2] * 5
            npt.assert_allclose(d.a ** 2 + d.b ** 2 + d.c ** 2, 1.0, rtol=0.0, atol=1e-8)

    def test_requires_two_dimensional_distribution(self):
        # the class reads a, b, c alone; (a, b) of PLUS with c above DIM_TOL
        class Fake:
            a, b, c = np.array([0.5]), np.array([-SQRT3 / 2.0]), np.array([0.5])

        assert hs.classify_normal_action(Fake()).tolist() == [hs.UNDEFINED]


class TestIdentityResiduals:
    def test_point_data_keeps_its_own_chart_point(self):
        M = hs.make_example("m1", r=0.6)
        rng = np.random.default_rng(25)
        u = hs.random_chart_point(rng)
        x5 = _unit(rng.standard_normal(5))
        y5 = _unit(rng.standard_normal(5))
        d = hs.analyze_point(M, u)
        before = _row_bytes(hs.stencil_residuals(d, x5, y5, y5))
        kept = u.copy()
        u += 0.3  # the caller reuses its array
        assert d.immersion is M
        npt.assert_array_equal(d.u, [kept])
        assert not d.u.flags.writeable
        assert _row_bytes(hs.stencil_residuals(d, x5, y5, y5)) == before

    def test_reeb_transport(self):
        rng = np.random.default_rng(12)
        for family, kw in [("m1", dict(r=0.6)), ("m4", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            for _ in range(3):
                x5 = _unit(rng.standard_normal(5))
                assert hs.stencil_residuals(d, x5, x5, x5).transport[0] <= 1e-5

    def test_codazzi(self):
        rng = np.random.default_rng(13)
        for family, kw in [("m1", dict(r=0.6)), ("m4", dict(k=0.6, l=0.8))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            x5 = _unit(rng.standard_normal(5))
            y5 = _unit(rng.standard_normal(5))
            assert hs.stencil_residuals(d, x5, y5, y5).codazzi[0] <= 1e-6
            # both sides are antisymmetric, so equal arguments give zero
            assert hs.stencil_residuals(d, x5, x5, x5).codazzi[0] <= 1e-12

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
            assert frames.g_norm(t, gap)[0] <= 1e-6

    def test_gauss(self):
        rng = np.random.default_rng(14)
        M = hs.make_example("m1", r=1.0)
        u = hs.random_chart_point(rng)
        d = hs.analyze_point(M, u)
        x5 = _unit(rng.standard_normal(5))
        y5 = _unit(rng.standard_normal(5))
        z5 = _unit(rng.standard_normal(5))
        assert hs.stencil_residuals(d, x5, y5, z5).gauss[0] <= 1e-5
        assert hs.stencil_residuals(d, x5, x5, z5).gauss[0] <= 1e-12

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
            errors.append(frames.g_norm(t, step - exact)[0])
        assert errors[0] > 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(coarse / fine - 4.0) <= 0.01

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_covariant_fd_is_odd_in_the_field(self, family, kw):
        # negating the field's values at the segment ends and its value at
        # the point negates the step bit for bit; the Codazzi oracle
        # `_shape_derivative_weingarten` aligns its neighbours' normals by it
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(37)
        d = hs.analyze_points(M, hs.random_chart_points(rng, 4))
        vels = rng.standard_normal((4, 5))
        X = frames._vm(vels, d.push_coords)
        ends = M.pushforward(hs._segments(d.u, vels, hs.NORMAL_H))[:2]
        values, value = rng.standard_normal((4, 2, 6)), rng.standard_normal((4, 6))
        step = hs._covariant_fd((d.p, d.q), d.xi, ends, values, X, value, hs.NORMAL_H)
        flipped = hs._covariant_fd((d.p, d.q), d.xi, ends, -values, X, -value, hs.NORMAL_H)
        assert np.all(step != 0.0)
        assert flipped.tobytes() == (-step).tobytes()

    @pytest.mark.parametrize("family,kw", [("m1", dict(r=0.6)), ("m3", dict(r=0.6)),
                                           ("m4", dict(k=0.6, l=0.8)), ("m6", dict(k=0.8, l=0.6))])
    def test_stencil_residuals_converge_at_second_order(self, monkeypatch, family, kw):
        # each finite-difference residual is the truncation error of central
        # differences, so it quarters when its step halves: Gauss and Codazzi
        # along NESTED_H, the transport along NORMAL_H, which the analysis's
        # shape operator shares; a transport residual below 1e-10 at the
        # finer step is at its round-off floor, where the ratio says nothing
        M = hs.make_example(family, **kw)
        rng = np.random.default_rng(35)
        U = np.stack([hs.random_chart_point(rng) for _ in range(4)])
        X5, Y5, Z5 = (v / np.linalg.norm(v, axis=-1, keepdims=True)
                      for v in rng.standard_normal((3, 4, 5)))

        def residuals(name, h):
            monkeypatch.setattr(hs, name, h)
            return hs.stencil_residuals(hs.analyze_points(M, U), X5, Y5, Z5)

        coarse, fine = residuals("NESTED_H", 2e-4), residuals("NESTED_H", 1e-4)
        for field in ("gauss", "codazzi"):
            ratio = getattr(fine, field) / getattr(coarse, field)
            assert np.all((0.2 <= ratio) & (ratio <= 0.3)), (field, ratio)
        coarse, fine = residuals("NORMAL_H", 4e-5), residuals("NORMAL_H", 2e-5)
        ratio = fine.transport / coarse.transport
        above = fine.transport >= 1e-10
        assert np.any(above)
        assert np.all((0.2 <= ratio[above]) & (ratio[above] <= 0.3)), ratio

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_analysis_shape_operator_converges_at_second_order(self, monkeypatch,
                                                               family, kw):
        # the principal curvatures of the analysis differ from their closed
        # forms by the truncation error of the normal's central difference,
        # which quarters when NORMAL_H halves; at these steps it is about
        # 1e-6, far above the round-off
        M = hs.make_example(family, **kw)
        U = hs.random_chart_points(np.random.default_rng(36), 4)
        expected = hs.expected_spectrum(family, **kw)

        def error(h):
            monkeypatch.setattr(hs, "NORMAL_H", h)
            rep = hs.spectral_report(hs.analyze_points(M, U))
            return hs.spectra_match(rep.eigenvalues, expected)

        coarse, fine = error(2e-3), error(1e-3)
        assert np.all(fine > 1e-8)
        ratio = fine / coarse
        assert np.all((0.2 <= ratio) & (ratio <= 0.3)), ratio

    def test_hopf_identity(self):
        rng = np.random.default_rng(15)
        for family, kw in [("m1", dict(r=0.6)), ("m3", dict(r=0.8))]:
            M = hs.make_example(family, **kw)
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            eta = _unit(d.eta[0])
            for _ in range(3):
                v = rng.standard_normal(5)
                x5 = _unit(v - (v @ eta) * eta)
                w = rng.standard_normal(5)
                y5 = _unit(w - (w @ eta) * eta)
                assert hs.hopf_identity_residual(d, x5, y5)[0] <= 1e-5

    def test_hopf_identity_on_principal_directions(self):
        # equal eigenvector arguments reduce to the single-branch identity
        M = hs.make_example("m1", r=0.6)
        u = hs.random_chart_point(np.random.default_rng(21))
        d = hs.analyze_point(M, u)
        evals, evecs = np.linalg.eigh(d.shape[0])
        for idx in range(5):
            x5 = evecs[:, idx]
            if abs(float(x5 @ d.eta[0])) > 1e-8:
                continue
            assert hs.hopf_identity_residual(d, x5, x5)[0] <= 1e-5

    def test_hopf_identity_rejects_non_orthogonal_arguments(self):
        M = hs.make_example("m1", r=0.6)
        u = hs.random_chart_point(np.random.default_rng(16))
        d = hs.analyze_point(M, u)
        x5 = _unit(d.eta[0])
        with pytest.raises(PreconditionError):
            hs.hopf_identity_residual(d, x5, x5)


def _shape_derivative(d, x5, y5):
    """(D_X A) Y - (D_Y A) X (1, 6) at a batch of one row, as the Codazzi
    residual takes it: minus the normal field of `_nested_fd`."""
    vels, nested = hs._nested_points(d, x5, y5)
    p, q, T = hs._chart_data(d.immersion, nested)
    xi = hs._aligned(hs._unit_normal(T), d.xi[:, None, :])
    return -hs._nested_fd(d, x5, y5, y5, vels, (p, q, T, xi))[1]


def _shape_derivative_weingarten(d, x5, y5, h):
    """(D_X A) Y - (D_Y A) X (6,) at a batch of one row, from full analyses
    at its four neighbours u +- h X and u +- h Y: A Y there is differenced
    along X, and A X along Y.

    Each neighbour's shape operator is taken for its normal aligned with
    the point's, as s A with s = -1 where the two normals point apart (the
    test of `hs._aligned`) and 1 elsewhere: every step from the normal to A
    is odd in the normal's sign (`_covariant_fd` among them), so s A is
    bitwise the shape operator of the aligned normal."""
    t = frames.get_tables()
    W, xi = d.chart_weights[0], d.xi[0]
    vels = np.stack([x5 @ W, y5 @ W])
    ends = hs._segments(d.u[0], vels, h)
    e = hs.analyze_points(d.immersion, ends.reshape(-1, 5))
    s = np.where(np.sum(e.xi * xi, axis=-1) < 0.0, -1.0, 1.0)
    frame = e.tangent_frame.reshape(2, 2, 5, 6)
    A = (s[:, None, None] * e.shape).reshape(2, 2, 5, 5)
    # the chart-constant extensions of Y (along X) and X (along Y)
    w6 = np.einsum("da,dkac->dkc", vels[::-1], e.push_coords.reshape(2, 2, 5, 6))
    comps = np.einsum("dkic,cf,dkf->dki", frame, t.g, w6)
    shaped = np.einsum("dki,dkij,dkjc->dkc", comps, A, frame)
    X, Y = d.from_components(x5)[0], d.from_components(y5)[0]
    steps = hs._covariant_fd((d.p[0], d.q[0]), xi,
                             (e.p.reshape(2, 2, 4), e.q.reshape(2, 2, 4)),
                             shaped, np.stack([X, Y]),
                             np.stack([d.apply_shape(Y)[0], d.apply_shape(X)[0]]), h)
    return steps[0] - steps[1]


def _hopf_directions(data, rng):
    """Unit directions orthogonal to the structure vector, one per row."""
    eta = data.eta / np.linalg.norm(data.eta, axis=-1, keepdims=True)
    v = rng.standard_normal(eta.shape)
    v -= np.sum(v * eta, axis=-1, keepdims=True) * eta
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestBatchedResiduals:
    """Each residual on a batch of point data against the same residual on
    each row of the batch alone; all of them agree bitwise."""

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
        for i in range(4):
            rows = slice(i, i + 1)
            single = hs.hopf_identity_residual(data[rows], XP[rows], YP[rows])
            assert single.shape == (1,)
            assert single.tobytes() == batched[rows].tobytes(), i
        joint = hs.stencil_residuals(data, X5, Y5, Z5)
        for field in dataclasses.astuple(joint):
            assert field.shape == (4,)
        for i in range(4):
            rows = slice(i, i + 1)
            single = hs.stencil_residuals(data[rows], X5[rows], Y5[rows], Z5[rows])
            assert _row_bytes(single) == _row_bytes(joint, rows), i
        # each one-identity residual is its field of the joint residuals
        npt.assert_array_equal(hs.reeb_transport_residual(data, X5), joint.transport)
        npt.assert_array_equal(hs.gauss_residual(data, X5, Y5, Z5), joint.gauss)
        npt.assert_array_equal(hs.codazzi_residual(data, X5, Y5), joint.codazzi)
        # the induced sectional value along the leaf pair, as leaf geometry
        # reads it, row by row too
        LX5, LY5 = hs.leaf_directions(data)
        leaf = hs.stencil_residuals(data, LX5, LY5, LY5).sectional
        for i in range(4):
            rows = slice(i, i + 1)
            lx5, ly5 = hs.leaf_directions(data[rows])
            assert lx5.tobytes() == LX5[rows].tobytes() and ly5.tobytes() == LY5[rows].tobytes()
            sectional = hs.stencil_residuals(data[rows], lx5, ly5, ly5).sectional
            assert sectional.tobytes() == leaf[rows].tobytes(), i
        if family in hs.THREE_CURVATURE_FAMILIES:
            batched = _leaf_geometry(data)
            for i in range(4):
                rows = slice(i, i + 1)
                assert _row_bytes(_leaf_geometry(data[rows])) == _row_bytes(batched, rows)

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
        tc = _theta_r(hs.analyze_point(M, hs.random_chart_point(np.random.default_rng(17))))
        assert tc.theta[0] == pytest.approx(1.0, abs=1e-6)
        assert tc.r_residual[0] <= 1e-6
        assert tc.product_residual[0] <= 1e-8

    def test_theta_r_well_conditioned_at_r1(self):
        # theta = 1 here; sqrt(1 - theta^2) of a rounded theta would turn its
        # last bit into a residual near 1e-8
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for family in ("m1", "m2", "m3"):
                M = hs.make_example(family, r=1.0)
                u = hs.random_chart_point(rng)
                tc = _theta_r(hs.analyze_point(M, u))
                assert max(tc.r_residual[0], tc.spectrum_residual[0]) < 1e-10, (seed, family)

    def test_theta_at_r06(self):
        # inverting r = sqrt(3) theta / sqrt(1 + 2 theta^2) at r = 0.6
        M = hs.make_example("m1", r=0.6)
        data = hs.analyze_point(M, hs.random_chart_point(np.random.default_rng(18)))
        rep = hs.spectral_report(data)
        tc = hs.theta_r_consistency(data, rep)
        assert tc.theta[0] == pytest.approx(math.sqrt(0.36 / 2.28), abs=1e-6)
        assert rep.theta_sine[0] == pytest.approx(math.sqrt(1.0 - rep.theta[0] ** 2), abs=1e-12)
        assert tc.r_residual[0] <= 1e-6
        assert tc.spectrum_residual[0] <= 1e-6
        assert tc.product_residual[0] <= 1e-8

    def test_degenerate_spectrum_error_names_the_chart_point(self):
        M = hs.make_example("m1", r=0.6)
        d = hs.analyze_point(M, hs.random_chart_point(np.random.default_rng(33)))
        simple = dataclasses.replace(d, shape=np.diag([0.0, 1.0, 2.0, 3.0, 4.0])[None])
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape(f"eigenspaces at u={d.u[0].tolist()}")):
            _theta_r(simple)
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape(f"eigenspace at u={d.u[0].tolist()}")):
            _leaf_geometry(simple)

    def test_rejects_torus_families(self):
        M = hs.make_example("m4", k=0.6, l=0.8)
        with pytest.raises(PreconditionError):
            _theta_r(hs.analyze_point(M, ORIGIN5))

    def test_minimality_exactly_at_r1(self):
        rng = np.random.default_rng(19)
        for family in ("m1", "m2", "m3"):
            M = hs.make_example(family, r=1.0)
            rep = hs.spectral_report(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert abs(rep.trace[0]) <= 1e-6
            M = hs.make_example(family, r=0.6)
            rep = hs.spectral_report(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert abs(rep.trace[0]) >= 0.1

    def test_leaf_geometry(self):
        rng = np.random.default_rng(20)
        for family in ("m1", "m3"):
            M = hs.make_example(family, r=0.6)
            lg = _leaf_geometry(hs.analyze_point(M, hs.random_chart_point(rng)))
            assert lg.sphere3_metric_residual[0] <= 1e-9
            assert lg.sphere2_metric_residual[0] <= 1e-9
            assert lg.sphere3_sectional[0] == pytest.approx(0.75, abs=1e-3)
            assert lg.sphere2_curvature_residual[0] <= 1e-6


class TestRankTest:
    """The pushforward rank test is one Cholesky factorization of
    gram - RANK_TOL I; it must decide as the smallest Gram eigenvalue does,
    except within rounding of RANK_TOL."""

    @staticmethod
    def _grams():
        """Gram matrices (n, 5, 5) of random chart points, and of marches
        and bisections toward the chart locks: u1 -> pi/4 on m1 and m3, and
        k -> 1 (l -> 0) on m4, where the torus factor collapses."""
        def gram(family, u, **kw):
            return hs._gram(hs.make_example(family, **kw).pushforward(u)[2])

        def lock_gram(family):
            return lambda gap: gram(family, np.array(
                [[0.2, math.pi / 4.0 - gap, 0.1, 0.3, 0.4]]), r=0.6)

        def torus_gram(l):
            return gram("m4", np.array([[0.2, 0.3, 0.1, 0.5, 0.7]]),
                        k=math.sqrt(1.0 - l * l), l=l)

        rng = np.random.default_rng(11)
        grams = [gram(family, np.array([hs.random_chart_point(rng) for _ in range(40)]), **kw)
                 for family, kw in (("m1", dict(r=0.6)), ("m3", dict(r=0.6)),
                                    ("m4", dict(k=0.6, l=0.8)))]
        for family in ("m1", "m3"):
            grams += [lock_gram(family)(gap) for gap in np.logspace(-1, -9, 81)]
            grams += TestRankTest._bisection(lock_gram(family), 1e-1, 1e-9)
        grams += [torus_gram(float(l)) for l in np.logspace(-1, -7, 61)]
        grams += TestRankTest._bisection(torus_gram, 1e-1, 1e-7)
        return np.concatenate(grams)

    @staticmethod
    def _bisection(gram, far, near, steps=48):
        """The Gram matrices (1, 5, 5) of a geometric bisection between a
        chart parameter far from a lock and one near it, toward the value
        where the smallest eigenvalue is RANK_TOL: they close in on the
        threshold from both sides, to well within 1e-12 of it."""
        out = []
        for _ in range(steps):
            mid = math.sqrt(far * near)
            out.append(gram(mid))
            if np.linalg.eigvalsh(out[-1])[0, 0] > hs.RANK_TOL:
                far = mid
            else:
                near = mid
        return out

    def test_cholesky_decision_matches_the_smallest_eigenvalue(self):
        grams = self._grams()
        lam = np.linalg.eigvalsh(grams)[:, 0]
        ok = np.array([hs._above_rank_tol(g[None]) for g in grams])
        clear = np.abs(lam - hs.RANK_TOL) > 1e-12
        npt.assert_array_equal(ok[clear], lam[clear] > hs.RANK_TOL)
        # the bisections bring the decided matrices close to the threshold
        assert np.sum(clear & (np.abs(lam - hs.RANK_TOL) < 1e-10)) >= 10
        # the marches cross the threshold, so both decisions are exercised
        assert np.any(ok) and not np.all(ok)
        # the batch passes only when every matrix does
        assert not hs._above_rank_tol(grams)
        assert hs._above_rank_tol(grams[ok])

    def test_non_finite_gram_raises_as_the_eigenvalue_test_did(self):
        M = hs.make_example("m1", r=0.6)
        u = np.array([[0.1, 0.2, 0.3, np.nan, 0.4]])
        assert not hs._above_rank_tol(hs._gram(M.pushforward(u)[2]))
        with pytest.raises(np.linalg.LinAlgError):
            hs._chart_data(M, u)

    def test_first_low_row_is_named(self):
        M = hs.make_example("m1", r=0.6)
        us = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.0, 0.785, 0.0, 0.0, 0.0],
                       [0.0, 0.7853, 0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateImmersionError,
                           match=re.escape("rank below 5 at u=[0.0, 0.785, 0.0, 0.0, 0.0]")):
            hs._chart_data(M, us)
