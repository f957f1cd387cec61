"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance is fixed here and matches the package's documented
guarantees.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion summary lines.
"""

import math
import time

import numpy as np
import pytest

from nks3 import frames, hypersurfaces as hs, quat as qt, verify

SQRT3 = math.sqrt(3.0)
T = frames.get_tables()


def _report(name: str, residual: float, tol: float, extra: str = ""):
    status = "PASS" if residual <= tol else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"[ACCEPTANCE] {name}: max_residual={residual:.3e} tol={tol:.0e}"
          f"{suffix} {status}")
    assert residual <= tol, f"{name}: {residual:.3e} > {tol:.0e}"


def _unit(v):
    return v / np.linalg.norm(v)


def test_c01_structure_identity_suite():
    started = time.perf_counter()
    rep = verify.run_structure_suite(seed=42, samples=1000)
    elapsed = time.perf_counter() - started
    worst = max(c.max_residual for c in rep.checks)
    _report("C01 structure-identities", worst, 1e-12, f"runtime={elapsed:.2f}s")
    assert elapsed < 5.0


def test_c02_g_norm_identity():
    # |G(X, Y)|^2 = 1/3 on g-orthonormal pairs with g(JX, Y) = 0
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(6)
        x = x / frames.g_norm(T, x)
        y = rng.standard_normal(6)
        jx = T.J @ x
        y = y - frames.g_inner(T, y, x) * x - frames.g_inner(T, y, jx) * jx
        y = y / frames.g_norm(T, y)
        val = frames.g_inner(T, frames.tensor_G(T, x, y), frames.tensor_G(T, x, y))
        worst = max(worst, abs(val - 1.0 / 3.0))
    _report("C02 G-norm-one-third", worst, 1e-10)


def test_c03_three_curvature_spectra():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for family in ("m1", "m2", "m3"):
        for r in (0.3, 0.6, 1.0):
            M = hs.make_example(family, r=r)
            expected = hs.expected_spectrum(family, r=r)
            for _ in range(3):
                d = hs.analyze_point(M, hs.random_chart_point(rng))
                worst = max(worst, hs.spectra_match(d.eigenvalues, expected)[0])
                if r == 1.0:
                    doubles = d.cluster_means[d.multiplicities == 2]
                    for val in doubles:
                        worst = max(worst, abs(abs(val) - SQRT3 / 6.0))
    elapsed = time.perf_counter() - started
    _report("C03 spectra-m1-m3", worst, 1e-6, f"runtime={elapsed:.2f}s")
    assert elapsed < 10.0


def test_c04_five_curvature_spectra():
    rng = np.random.default_rng(4)
    worst = 0.0
    half = math.sqrt(0.5)
    for family in ("m4", "m5", "m6"):
        for k, l in ((0.6, 0.8), (half, half)):
            M = hs.make_example(family, k=k, l=l)
            expected = hs.expected_spectrum(family, k=k, l=l)
            for _ in range(3):
                d = hs.analyze_point(M, hs.random_chart_point(rng))
                worst = max(worst, hs.spectra_match(d.eigenvalues, expected)[0])
    _report("C04 spectra-m4-m6", worst, 1e-6)


def test_c05_hopf_and_holomorphic_distribution():
    rng = np.random.default_rng(5)
    worst_hopf = worst_alpha = worst_dim = worst_eta = 0.0
    cases = [("m1", dict(r=0.6)), ("m2", dict(r=0.8)), ("m3", dict(r=0.4)),
             ("m4", dict(k=0.6, l=0.8)), ("m5", dict(k=0.6, l=0.8)),
             ("m6", dict(k=0.6, l=0.8))]
    for family, kw in cases:
        M = hs.make_example(family, **kw)
        for _ in range(20):
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            worst_hopf = max(worst_hopf, d.hopf_residual[0])
            worst_alpha = max(worst_alpha, abs(d.alpha[0]))
            worst_dim = max(worst_dim, d.c[0])
            eta = _unit(d.eta[0])
            for i in range(5):
                v = np.zeros(5)
                v[i] = 1.0
                v = v - float(v @ eta) * eta
                if np.linalg.norm(v) < 1e-8:
                    continue
                px = T.P @ d.from_components(_unit(v))[0]
                worst_eta = max(
                    worst_eta, abs(float(px @ T.g @ d.structure_vector[0]))
                )
    _report("C05a hopf-residual", worst_hopf, 1e-6)
    _report("C05b alpha-zero", worst_alpha, 1e-6)
    _report("C05c distribution-dim-2", worst_dim, 1e-6)
    _report("C05d P-preserves-complement", worst_eta, 1e-12)


def test_c06_normal_action_trichotomy():
    rng = np.random.default_rng(6)
    worst = 0.0
    for family, expected in (("m1", hs.PLUS), ("m2", hs.MINUS), ("m3", hs.REFLECT)):
        for r in (0.3, 0.7, 1.0):
            M = hs.make_example(family, r=r)
            d = hs.analyze_point(M, hs.random_chart_point(rng))
            assert hs.classify_normal_action(d)[0] == expected
            worst = max(worst, hs.normal_action_residual(d, expected)[0])
    _report("C06 normal-action-trichotomy", worst, 1e-6)


def test_c07_minimality_boundary():
    rng = np.random.default_rng(7)
    worst_min = 0.0
    worst_nonmin = 0.0
    for family in ("m1", "m2", "m3"):
        M = hs.make_example(family, r=1.0)
        d = hs.analyze_point(M, hs.random_chart_point(rng))
        worst_min = max(worst_min, abs(np.sum(d.eigenvalues[0])))
        M = hs.make_example(family, r=0.6)
        d = hs.analyze_point(M, hs.random_chart_point(rng))
        # at least half the closed form 2 sqrt(1 - r^2) / r of the trace
        bound = math.sqrt(1.0 - 0.6 * 0.6) / 0.6
        worst_nonmin = max(worst_nonmin, max(0.0, bound - abs(np.sum(d.eigenvalues[0]))))
    _report("C07a minimal-at-r1", worst_min, 1e-6)
    _report("C07b nonminimal-at-r06", worst_nonmin, 0.0)


def test_c08_connection_cross_validation():
    rng = np.random.default_rng(8)
    p, q = qt.unit_rows(rng, rng.standard_normal((2, 100, 4)))
    worst_rel = float(np.max(frames.connection_relation_residual(
        T, p, q, *rng.standard_normal((2, 100, 6)))))
    X, Y, Z = (rng.standard_normal((100, 6)) for _ in range(3))
    diff = frames.curvature(T, X, Y, Z) - frames.curvature_closed_form(T, X, Y, Z)
    worst_curv = float(np.max(frames.g_norm(T, diff)))
    _report("C08a flat-connection-relation", worst_rel, 1e-12)
    _report("C08b curvature-two-routes", worst_curv, 1e-12)


def test_c09_hypersurface_identity_residuals():
    rng = np.random.default_rng(9)
    worst_reeb = worst_codazzi = worst_gauss = worst_hopfid = 0.0
    for family, kw in [("m1", dict(r=0.6)), ("m3", dict(r=0.8)),
                       ("m4", dict(k=0.6, l=0.8))]:
        M = hs.make_example(family, **kw)
        for _ in range(2):
            u = hs.random_chart_point(rng)
            d = hs.analyze_point(M, u)
            x5 = _unit(rng.standard_normal(5))
            y5 = _unit(rng.standard_normal(5))
            z5 = _unit(rng.standard_normal(5))
            res = hs.stencil_residuals(d, x5, y5, z5)
            worst_reeb = max(worst_reeb, res.transport[0])
            worst_codazzi = max(worst_codazzi, res.codazzi[0])
            worst_gauss = max(worst_gauss, res.gauss[0])
            eta = _unit(d.eta[0])
            xp = _unit(x5 - float(x5 @ eta) * eta)
            yp = _unit(y5 - float(y5 @ eta) * eta)
            worst_hopfid = max(
                worst_hopfid, hs.hopf_identity_residual(d, xp, yp)[0]
            )
    _report("C09a reeb-transport", worst_reeb, 1e-8)
    _report("C09b codazzi", worst_codazzi, 1e-6)
    _report("C09c gauss", worst_gauss, 1e-5)
    _report("C09d hopf-pointwise-identity", worst_hopfid, 1e-8)


def test_c10_theta_r_relation():
    rng = np.random.default_rng(10)
    worst_theta = worst_prod = 0.0
    for r in (0.3, 0.6, 0.9, 1.0):
        M = hs.make_example("m1", r=r)
        d = hs.analyze_point(M, hs.random_chart_point(rng))
        tc = hs.theta_r_consistency(d)
        worst_theta = max(worst_theta, tc.r_residual[0], tc.spectrum_residual[0])
        worst_prod = max(worst_prod, tc.product_residual[0])
    _report("C10a theta-r-relation", worst_theta, 1e-6)
    _report("C10b double-eigenvalue-product", worst_prod, 1e-8)


def test_c11_isometry_suite():
    rep = verify.run_isometry_suite(seed=11, samples=100)
    worst = max(c.max_residual for c in rep.checks
                if c.check_id != "differential-vs-fd")
    fd = next(c for c in rep.checks if c.check_id == "differential-vs-fd")
    _report("C11 isometry-suite", worst, 1e-12)
    assert fd.passed
