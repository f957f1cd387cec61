"""Verification suites: pass status, determinism, report schema, NaN policy."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nks3 import hypersurfaces as hs, isometries as iso, pointwise as pw, quat as qt, verify
from nks3.errors import DegenerateImmersionError, DomainError

SQRT3 = math.sqrt(3.0)


def test_structure_suite_passes():
    rep = verify.run_structure_suite(seed=42, samples=100)
    assert rep.all_pass
    assert rep.suite == "structure"
    ids = {c.check_id for c in rep.checks}
    assert {"G-antisymmetry", "G-inner-product", "flat-connection-relation",
            "curvature-two-routes", "frame-vs-pointwise"} <= ids


def test_structure_suite_rejects_zero_samples():
    with pytest.raises(DomainError):
        verify.run_structure_suite(seed=42, samples=0)


def test_structure_suite_deterministic():
    a = verify.run_structure_suite(seed=7, samples=50)
    b = verify.run_structure_suite(seed=7, samples=50)
    for ca, cb in zip(a.checks, b.checks):
        assert ca.check_id == cb.check_id
        assert ca.max_residual == cb.max_residual


def test_isometry_suite_passes():
    rep = verify.run_isometry_suite(seed=42, samples=50)
    assert rep.all_pass


def _isometry_residuals_per_sample(seed, samples):
    """The isometry suite's residuals, one sample at a time on single-point
    component arrays, with the suite's draw order."""
    rng = np.random.default_rng(seed)
    swap, twist = iso.factor_swap(), iso.conjugation_twist()
    res = {}

    def worst(cid, value):
        res[cid] = max(res.get(cid, 0.0), float(value))

    def J(at, w):
        return pw.project_components(*at, *pw.j_components(*at, *w))

    def P(at, w):
        return pw.project_components(*at, *pw.p_components(*at, *w))

    def gdist(at, w1, w2):
        return pw.g_norm_components(*at, w1[0] - w2[0], w1[1] - w2[1])

    for _ in range(samples):
        at = (qt.sample_unit(rng), qt.sample_unit(rng))
        z = pw.project_components(*at, rng.standard_normal(4), rng.standard_normal(4))
        z2 = pw.project_components(*at, rng.standard_normal(4), rng.standard_normal(4))
        trans = iso.two_sided_translation(*(qt.sample_unit(rng) for _ in range(3)))
        for name, m in (("swap", swap), ("twist", twist), ("translation", trans)):
            image = m.apply_components(*at)
            d1, d2 = m.differential_components(*at, *z), m.differential_components(*at, *z2)
            worst("pullback-" + name, abs(pw.metric_components(*image, *d1, *d2)
                                          - pw.metric_components(*at, *z, *z2)))
            fd = iso.differential_fd_components(m, *at, *z)
            worst("differential-vs-fd", np.max(np.abs(fd[0] - d1[0])))
            worst("differential-vs-fd", np.max(np.abs(fd[1] - d1[1])))
        for name, m in (("swap", swap), ("twist", twist)):
            image = m.apply_components(*at)
            jdz = J(image, m.differential_components(*at, *z))
            worst(name + "-J-anticommute", gdist(
                image, m.differential_components(*at, *J(at, z)), [-x for x in jdz]))
        image = swap.apply_components(*at)
        worst("swap-P-commute", gdist(image, swap.differential_components(*at, *P(at, z)),
                                      P(image, swap.differential_components(*at, *z))))
        image = twist.apply_components(*at)
        pdz = P(image, twist.differential_components(*at, *z))
        jpdz = J(image, pdz)
        target = [-0.5 * x + (SQRT3 / 2.0) * y for x, y in zip(pdz, jpdz)]
        worst("twist-P-twist", gdist(image, twist.differential_components(*at, *P(at, z)),
                                     target))

    for _ in range(samples):
        pt = (qt.sample_unit(rng), qt.sample_unit(rng))
        a, b, c = (qt.sample_unit(rng) for _ in range(3))

        def dist(x, y):
            return max(np.max(np.abs(x[0] - y[0])), np.max(np.abs(x[1] - y[1])))

        sw, tw = swap.apply_components, twist.apply_components
        worst("swap-involution", dist(sw(*sw(*pt)), pt))
        worst("twist-involution", dist(tw(*tw(*pt)), pt))
        t_abc = iso.two_sided_translation(a, b, c).apply_components
        worst("translation-through-swap", dist(
            t_abc(*sw(*pt)), sw(*iso.two_sided_translation(b, a, c).apply_components(*pt))))
        worst("translation-through-twist", dist(
            t_abc(*tw(*pt)), tw(*iso.two_sided_translation(c, b, a).apply_components(*pt))))
    return res


def test_isometry_suite_matches_per_sample_recomputation_bitwise():
    # the suite draws all samples as one array and scales the unit slots;
    # the residuals equal those of the draws made one sample at a time
    for seed in (0, 11, 29):
        rep = verify.run_isometry_suite(seed=seed, samples=30)
        expected = _isometry_residuals_per_sample(seed, 30)
        assert {c.check_id: c.max_residual for c in rep.checks} == expected, seed


@pytest.mark.parametrize("samples", [1, 5, 200])
def test_structure_suite_makes_one_connection_call(monkeypatch, samples):
    # the flat-connection relation is evaluated once over the whole batch
    calls = []
    conn = verify.connection_relation_residual

    def counting_conn(*args):
        calls.append(1)
        return conn(*args)

    monkeypatch.setattr(verify, "connection_relation_residual", counting_conn)
    rep = verify.run_structure_suite(seed=4, samples=samples)
    assert len(calls) == 1
    assert rep.all_pass


def test_isometry_draws_make_no_single_quaternion_draws(monkeypatch):
    # the isometry suite and the composition checks draw each set as one
    # array, never one unit quaternion at a time
    calls = []
    sample_unit = qt.sample_unit

    def counting_sample_unit(rng):
        calls.append(1)
        return sample_unit(rng)

    monkeypatch.setattr(qt, "sample_unit", counting_sample_unit)
    counting_sample_unit(np.random.default_rng(0))
    assert len(calls) == 1  # the count sees a draw
    calls.clear()
    verify.run_isometry_suite(seed=3, samples=20)
    iso.composition_checks(np.random.default_rng(3), samples=20)
    assert calls == []


def test_isometry_suite_makes_no_per_sample_products(monkeypatch):
    # the suite evaluates each identity once over the batch, so the number
    # of quaternion products does not grow with the sample count
    calls = []
    mul = qt.mul

    def counting_mul(q1, q2):
        calls.append(1)
        return mul(q1, q2)

    monkeypatch.setattr(qt, "mul", counting_mul)
    counts = []
    for samples in (10, 40):
        calls.clear()
        verify.run_isometry_suite(seed=3, samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("family,params", [("m3", {"r": 0.6}),
                                           ("m6", {"k": 0.6, "l": 0.8})])
def test_hypersurface_suite_makes_no_per_sample_chart_calls(monkeypatch, family, params):
    # every identity is evaluated once over the suite's samples, so neither
    # the quaternion products, the chart calls nor the finite-difference
    # derivative steps grow with the sample count
    calls = {"mul": 0, "pushforward": 0, "covariant_fd": 0, "unit_normal": 0}
    mul, pushforward, covariant_fd = qt.mul, hs.Immersion.pushforward, hs._covariant_fd
    unit_normal = hs._unit_normal

    def counting_mul(q1, q2):
        calls["mul"] += 1
        return mul(q1, q2)

    def counting_pushforward(self, u):
        calls["pushforward"] += 1
        return pushforward(self, u)

    def counting_covariant_fd(*args):
        calls["covariant_fd"] += 1
        return covariant_fd(*args)

    def counting_unit_normal(T):
        calls["unit_normal"] += 1
        return unit_normal(T)

    monkeypatch.setattr(qt, "mul", counting_mul)
    monkeypatch.setattr(hs.Immersion, "pushforward", counting_pushforward)
    monkeypatch.setattr(hs, "_covariant_fd", counting_covariant_fd)
    monkeypatch.setattr(hs, "_unit_normal", counting_unit_normal)
    counts = []
    for samples in (2, 5):
        calls.update(mul=0, pushforward=0, covariant_fd=0, unit_normal=0)
        verify.run_hypersurface_suite(family, params, seed=3, samples=samples)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert all(n > 0 for n in counts[0].values())
    # the analysis, and one stencil for transport, Gauss, Codazzi and for
    # m1-m3 the leaf curvature; each charts its points and takes their
    # normals once
    assert counts[0]["pushforward"] == 2
    assert counts[0]["unit_normal"] == 2


def _structure_complement_loop(row):
    """Gram-Schmidt of one point's coordinate vectors with U projected out,
    for a batch of one row."""
    eta = row.eta[0]
    basis = []
    for i in range(5):
        v = np.zeros(5)
        v[i] = 1.0
        v = v - float(v @ eta) * eta / float(eta @ eta)
        for b in basis:
            v = v - float(v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
    return basis[:4]


def test_structure_complement_rows_equal_per_point_loop_bitwise():
    M = hs.make_example("m2", r=0.6)
    rng = np.random.default_rng(12)
    data = hs.analyze_points(M, np.stack([hs.random_chart_point(rng) for _ in range(6)]))
    eta = data.eta.copy()
    eta[5] = [1.0, 0.0, 0.0, 0.0, 0.0]  # the first coordinate vector is skipped
    data = dataclasses.replace(data, eta=eta)
    basis = verify._structure_complement(data)
    for i in range(6):
        assert basis[i].tobytes() == np.stack(
            _structure_complement_loop(data[i:i + 1])).tobytes()


@pytest.mark.parametrize("family,params", [("m3", {"r": 0.6}), ("m6", {"k": 0.6, "l": 0.8})])
def test_hypersurface_suite_makes_no_per_sample_spectral_reports(monkeypatch, family,
                                                                 params):
    # one spectral report, with one eigh call, for the samples and the
    # further points, which the theta-r relation and the leaf geometry of
    # m1-m3 read, whatever the sample count
    calls = {"spectral_report": 0, "eigh": 0}
    report, eigh = hs.spectral_report, np.linalg.eigh

    def counting_report(data):
        calls["spectral_report"] += 1
        return report(data)

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(hs, "spectral_report", counting_report)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for samples in (2, 5):
        calls.update(spectral_report=0, eigh=0)
        verify.run_hypersurface_suite(family, params, seed=3, samples=samples)
        assert calls == {"spectral_report": 1, "eigh": 1}, samples


def test_hypersurface_suite_single_family():
    rep = verify.run_hypersurface_suite("m1", {"r": 0.6}, seed=7, samples=3)
    assert rep.all_pass
    by_id = {c.check_id: c for c in rep.checks}
    spec = by_id["m1(r=0.6):spectrum-closed-form"]
    assert spec.max_residual <= 1e-6
    assert by_id["m1(r=0.6):normal-action"].passed
    assert by_id["m1(r=0.6):nonminimal-below-r1"].passed


def test_hypersurface_suite_twist_at_r1():
    rep = verify.run_hypersurface_suite("m3", {"r": 1.0}, seed=3, samples=2)
    assert rep.all_pass
    by_id = {c.check_id: c for c in rep.checks}
    assert "m3(r=1):minimal-at-r1" in by_id
    assert by_id["m3(r=1):normal-action"].anchor.endswith("REFLECT")


@pytest.mark.parametrize("r", [0.999, 0.9999])
def test_nonminimal_check_holds_near_r1(r):
    # the trace 2 sqrt(1 - r^2) / r falls below any fixed bound as r -> 1;
    # the check's bound is half of it
    rep = verify.run_hypersurface_suite("m1", {"r": r}, seed=0, samples=3)
    check = next(c for c in rep.checks if c.check_id.endswith(":nonminimal-below-r1"))
    assert check.passed, check.max_residual


def test_nonminimal_check_fails_on_a_zero_trace(monkeypatch):
    report = hs.spectral_report

    def zero_trace(data):
        rep = report(data)
        return dataclasses.replace(rep, trace=np.zeros_like(rep.trace))

    monkeypatch.setattr(hs, "spectral_report", zero_trace)
    rep = verify.run_hypersurface_suite("m1", {"r": 0.6}, seed=0, samples=3)
    check = next(c for c in rep.checks if c.check_id.endswith(":nonminimal-below-r1"))
    assert not check.passed
    assert check.max_residual == math.sqrt(1.0 - 0.6 * 0.6) / 0.6


def test_report_json_schema():
    rep = verify.run_structure_suite(seed=1, samples=10)
    doc = json.loads(json.dumps(rep.to_dict(), indent=2))
    assert set(doc) == {"suite", "seed", "checks", "duration_ms", "environment"}
    for check in doc["checks"]:
        assert set(check) == {"id", "anchor", "samples", "max_residual",
                              "tolerance", "pass"}
        assert isinstance(check["pass"], bool)


def test_nan_residual_fails_closed():
    check = verify.CheckResult("x", "y", 1, math.nan, 1.0)
    assert not check.passed
    check = verify.CheckResult("x", "y", 1, math.inf, 1.0)
    assert not check.passed
    assert verify._sanitize(math.nan) == math.inf


def test_hypersurface_nan_residual_fails_its_check(monkeypatch):
    # a NaN in any row, not only the first, reaches the report as inf
    stencil_residuals = hs.stencil_residuals

    def nan_in_row_1(data, x5, y5, z5):
        res = stencil_residuals(data, x5, y5, z5)
        res.codazzi[1] = math.nan
        return res

    monkeypatch.setattr(hs, "stencil_residuals", nan_in_row_1)
    rep = verify.run_hypersurface_suite("m1", {"r": 0.6}, seed=7, samples=3)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.check_id for c in failed] == ["m1(r=0.6):codazzi"]
    assert failed[0].max_residual == math.inf


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-5])
def test_codazzi_check_catches_a_scaled_curvature(monkeypatch, scale):
    # the Codazzi tolerance sits close enough to its finite-difference error
    # that a curvature tensor off by 1e-5 of itself fails the check
    curvature = hs.curvature_closed_form
    monkeypatch.setattr(hs, "curvature_closed_form",
                        lambda tables, *args: scale * curvature(tables, *args))
    rep = verify.run_hypersurface_suite("m1", {"r": 0.6}, seed=7, samples=3)
    codazzi = next(c for c in rep.checks if c.check_id == "m1(r=0.6):codazzi")
    assert codazzi.passed == (scale == 1.0), codazzi.max_residual


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-4])
def test_gauss_check_catches_a_scaled_curvature(monkeypatch, scale):
    # the Gauss tolerance sits close enough to its finite-difference error
    # that a curvature tensor off by 1e-4 of itself fails the check
    curvature = hs.curvature_closed_form
    monkeypatch.setattr(hs, "curvature_closed_form",
                        lambda tables, *args: scale * curvature(tables, *args))
    rep = verify.run_hypersurface_suite("m1", {"r": 0.6}, seed=7, samples=3)
    gauss = next(c for c in rep.checks if c.check_id == "m1(r=0.6):gauss")
    assert gauss.passed == (scale == 1.0), gauss.max_residual


def _further_point_residuals(family, params, seed, samples):
    """The theta-r, double-eigenvalue-product and leaf-geometry residuals of
    a suite, recomputed on its further points alone: their own analysis,
    stencil along their leaf directions and spectral report."""
    M = hs.make_example(family, **params)
    rng2 = np.random.default_rng(seed + 1)
    extra = hs.analyze_points(M, np.stack([hs.random_chart_point(rng2)
                                           for _ in range(min(samples, 3))]))
    rep = hs.spectral_report(extra)
    x5, y5 = hs.leaf_directions(extra)
    tc = hs.theta_r_consistency(extra, rep)
    lg = hs.leaf_geometry(extra, hs.stencil_residuals(extra, x5, y5, y5).sectional, rep)
    return {
        "theta-r": verify._worst(tc.r_residual, tc.spectrum_residual),
        "double-eigenvalue-product": verify._worst(tc.product_residual),
        "leaf-geometry": verify._worst(lg.sphere3_metric_residual * 1e3,
                                       np.abs(lg.sphere3_sectional - 0.75),
                                       lg.sphere2_metric_residual * 1e3,
                                       lg.sphere2_curvature_residual * 1e3),
    }


@pytest.mark.parametrize("family,params", [("m1", {"r": 0.6}), ("m2", {"r": 1.0}),
                                           ("m3", {"r": 0.6})])
@pytest.mark.parametrize("samples", [1, 4])
def test_further_point_residuals_equal_their_own_batch_bitwise(family, params, samples):
    # the suite takes the further points' leaf curvature from the samples'
    # stencil call and their spectra from one report over all its points;
    # every row of both equals its own, so the residuals do not move
    rep = verify.run_hypersurface_suite(family, params, seed=5, samples=samples)
    got = {c.check_id.split(":", 1)[1]: c.max_residual for c in rep.checks}
    for name, residual in _further_point_residuals(family, params, 5, samples).items():
        assert got[name].hex() == residual.hex(), name


def test_structure_nan_residual_fails_its_check(monkeypatch):
    # a NaN in any row of the batched residual reaches the report as inf
    conn = verify.connection_relation_residual

    def nan_in_row_1(*args):
        res = conn(*args).copy()
        res[1] = math.nan
        return res

    monkeypatch.setattr(verify, "connection_relation_residual", nan_in_row_1)
    rep = verify.run_structure_suite(seed=7, samples=5)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.check_id for c in failed] == ["flat-connection-relation"]
    assert failed[0].max_residual == math.inf


def test_environment_fingerprint_keys():
    env = verify.environment_fingerprint()
    assert {"python", "numpy", "platform", "machine", "float_eps"} <= set(env)


def test_composition_nan_in_second_factor_fails_its_check(monkeypatch):
    # a NaN in the second factor of the swap image reaches the report as
    # inf; a reduction through the builtin max dropped it and gave 0.0
    swap = iso.factor_swap()

    class NanSwap(iso.IsometryMap):
        def apply_components(self, p, q):
            image_p, image_q = swap.apply_components(p, q)
            image_q = np.array(image_q)
            image_q[..., 1, 0] = math.nan
            return image_p, image_q

    monkeypatch.setattr(iso, "factor_swap", lambda: NanSwap(iso.SWAP))
    comp = iso.composition_checks(np.random.default_rng(5), samples=4)
    assert isinstance(comp["translation-through-swap"], float)
    assert math.isnan(comp["translation-through-swap"])
    rep = verify.run_isometry_suite(seed=5, samples=4)
    check = {c.check_id: c for c in rep.checks}["translation-through-swap"]
    assert check.max_residual == math.inf
    assert not check.passed


@pytest.mark.parametrize("family,params,further", [
    ("m1", {"r": 0.6}, {"normal-action", "theta-r", "double-eigenvalue-product",
                        "leaf-geometry"}),
    ("m6", {"k": 0.6, "l": 0.8}, {"normal-action-defined"}),
])
@pytest.mark.parametrize("samples", [2, 5])
def test_further_point_checks_report_their_own_count(family, params, further, samples):
    # the checks on the further points see at most three of them, and say so
    rep = verify.run_hypersurface_suite(family, params, seed=3, samples=samples)
    counts = {c.check_id.split(":", 1)[1]: c.samples for c in rep.checks}
    assert further <= set(counts)
    for name, count in counts.items():
        assert count == (min(samples, 3) if name in further else samples), name


def test_suites_build_no_ambient_point(monkeypatch):
    # below the object API points travel as (p, q) arrays, so no suite and
    # no analysis pays for the unit-norm validation of an AmbientPoint
    built = []
    validate = pw.AmbientPoint.__post_init__

    def counting_validate(self):
        built.append(1)
        validate(self)

    monkeypatch.setattr(pw.AmbientPoint, "__post_init__", counting_validate)
    pw.AmbientPoint(qt.ONE, qt.ONE)
    assert len(built) == 1  # the count sees a construction
    verify.run_structure_suite(seed=0, samples=20)
    verify.run_isometry_suite(seed=0, samples=5)
    rng = np.random.default_rng(0)
    for family, params in (("m3", {"r": 0.6}), ("m6", {"k": 0.6, "l": 0.8})):
        verify.run_hypersurface_suite(family, params, seed=0, samples=2)
        hs.analyze_points(hs.make_example(family, **params),
                          np.stack([hs.random_chart_point(rng) for _ in range(3)]))
    assert len(built) == 1


@pytest.mark.parametrize("family,params", [("m1", {"r": 0.6}), ("m3", {"r": 1.0}),
                                           ("m6", {"k": 0.6, "l": 0.8})])
def test_hypersurface_suite_makes_no_eigenvalue_rank_test(monkeypatch, family, params):
    # the rank test is one Cholesky factorization per chart call; eigvalsh
    # runs only to name a degenerate chart point
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert verify.run_hypersurface_suite(family, params, seed=3, samples=3).all_pass
    assert calls == []
    with pytest.raises(DegenerateImmersionError):
        hs.analyze_point(hs.make_example(family, **params), [0.0, 0.785, 0.0, 0.0, 0.0])
    assert len(calls) == 1
