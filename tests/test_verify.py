"""Verification suites: pass status, determinism, report schema, NaN policy."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nks3 import frames, hypersurfaces as hs, isometries as iso, pointwise as pw, quat as qt
from nks3 import verify
from nks3.errors import DegenerateImmersionError, DomainError

from level_sets import complement_frame

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
    pairs (2, 4), with the suite's draw order."""
    rng = np.random.default_rng(seed)
    swap, twist = iso.factor_swap(), iso.conjugation_twist()
    res = {}

    def worst(cid, value):
        res[cid] = max(res.get(cid, 0.0), float(value))

    def J(at, w):
        return pw.project_components(at, pw.j_components(at, w))

    def P(at, w):
        return pw.project_components(at, pw.p_components(at, w))

    def gdist(at, w1, w2):
        d = w1 - w2
        return np.sqrt(np.maximum(pw.metric_components(at, d, d), 0.0))

    for _ in range(samples):
        at = np.stack([qt.sample_unit(rng), qt.sample_unit(rng)])
        z = pw.project_components(at, rng.standard_normal((2, 4)))
        z2 = pw.project_components(at, rng.standard_normal((2, 4)))
        trans = iso.two_sided_translation(*(qt.sample_unit(rng) for _ in range(3)))
        for name, m in (("swap", swap), ("twist", twist), ("translation", trans)):
            image = m.apply_components(at)
            d1, d2 = m.differential_components(at, z), m.differential_components(at, z2)
            worst("pullback-" + name, abs(pw.metric_components(image, d1, d2)
                                          - pw.metric_components(at, z, z2)))
            fd = iso.differential_fd_components(m, at, z)
            worst("differential-vs-fd", np.max(np.abs(fd - d1)))
        for name, m in (("swap", swap), ("twist", twist)):
            image = m.apply_components(at)
            jdz = J(image, m.differential_components(at, z))
            worst(name + "-J-anticommute", gdist(
                image, m.differential_components(at, J(at, z)), -jdz))
        image = swap.apply_components(at)
        worst("swap-P-commute", gdist(image, swap.differential_components(at, P(at, z)),
                                      P(image, swap.differential_components(at, z))))
        image = twist.apply_components(at)
        pdz = P(image, twist.differential_components(at, z))
        target = -0.5 * pdz + (SQRT3 / 2.0) * J(image, pdz)
        worst("twist-P-twist", gdist(image, twist.differential_components(at, P(at, z)),
                                     target))

    for _ in range(samples):
        pt = np.stack([qt.sample_unit(rng), qt.sample_unit(rng)])
        a, b, c = (qt.sample_unit(rng) for _ in range(3))

        def dist(x, y):
            return np.max(np.abs(x - y))

        sw, tw = swap.apply_components, twist.apply_components
        worst("swap-involution", dist(sw(sw(pt)), pt))
        worst("twist-involution", dist(tw(tw(pt)), pt))
        t_abc = iso.two_sided_translation(a, b, c).apply_components
        worst("translation-through-swap", dist(
            t_abc(sw(pt)), sw(iso.two_sided_translation(b, a, c).apply_components(pt))))
        worst("translation-through-twist", dist(
            t_abc(tw(pt)), tw(iso.two_sided_translation(c, b, a).apply_components(pt))))
    return res


def test_isometry_suite_matches_per_sample_recomputation_bitwise():
    # the suite draws all samples as one array and scales the unit slots;
    # the residuals equal those of the draws made one sample at a time
    for seed in (0, 11, 29):
        rep = verify.run_isometry_suite(seed=seed, samples=30)
        expected = _isometry_residuals_per_sample(seed, 30)
        assert {c.check_id: c.max_residual for c in rep.checks} == expected, seed


def _vector_maps(rng, n):
    """The pointwise, frame and differential maps of vectors z and z' (..., 2, 4)
    at the points (n, 2, 4), each returning one array."""
    p, q, a, b, c = qt.unit_rows(rng, rng.standard_normal((5, n, 4)))
    fns = {
        "project": lambda at, z, z2: pw.project_components(at, z),
        "P": lambda at, z, z2: pw.p_components(at, z),
        "J": lambda at, z, z2: pw.j_components(at, z),
        "metric": lambda at, z, z2: pw.metric_components(at, z, z2),
        "frame": lambda at, z, z2: frames.frame_coords_components(at, z),
    }
    for m in (iso.factor_swap(), iso.conjugation_twist(), iso.two_sided_translation(a, b, c)):
        fns["d " + m.tag] = lambda at, z, z2, m=m: m.differential_components(at, z)
    return np.stack([p, q], axis=-2), fns


def _assert_stack_is_separate_calls(fns, at, at_row, k, vectors):
    for name, f in fns.items():
        stacked = f(at, *vectors)
        for i in range(k):
            single = f(at_row(i), *(w[i] for w in vectors))
            assert stacked[i].shape == single.shape, name
            assert stacked[i].tobytes() == single.tobytes(), (name, i)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [1, 100])
def test_stacked_vectors_equal_separate_calls_bitwise(k, n):
    # the ambient suites map the vectors they need at one point as one
    # (k, n, 2, 4) stack against the (n, 2, 4) points; each slice of the
    # result is the bits of its own call
    rng = np.random.default_rng(10 * k + n)
    at, fns = _vector_maps(rng, n)
    vectors = tuple(rng.standard_normal((2, k, n, 2, 4)))
    _assert_stack_is_separate_calls(fns, at, lambda i: at, k, vectors)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [1, 100])
def test_stacked_points_equal_separate_calls_bitwise(k, n):
    # J, P and g at the stacked images of several maps, likewise
    rng = np.random.default_rng(10 * k + n + 1)
    _, fns = _vector_maps(rng, n)
    at = qt.unit_rows(rng, rng.standard_normal((k, n, 2, 4)))
    vectors = tuple(rng.standard_normal((2, k, n, 2, 4)))
    pointwise = {name: fns[name] for name in ("project", "P", "J", "metric", "frame")}
    _assert_stack_is_separate_calls(pointwise, at, lambda i: at[i], k, vectors)


def _structure_residuals_unstacked(seed, samples):
    """The structure suite's residuals with its draws, each identity written
    out on its own: J Z through `j_components`, which forms P Z, then P Z,
    the frame coefficients and the metric pairings one call each."""
    t = frames.get_tables()
    rng = np.random.default_rng(seed)
    n = samples
    X, Y, Z, W = (rng.standard_normal((n, 6)) for _ in range(4))
    G, gn = frames.tensor_G, frames.g_norm

    def g(x, y):
        return frames.g_inner(t, x, y)

    lhs26 = g(G(t, X, Y), G(t, Z, W))
    rhs26 = (1.0 / 3.0) * (g(Z, X) * g(W, Y) - g(W, X) * g(Z, Y)
                           + g(Z, X @ t.J.T) * g(Y, W @ t.J.T)
                           - g(W, X @ t.J.T) * g(Y, Z @ t.J.T))
    lhs28 = 2.0 * (frames.nabla(t, X, Y @ t.P.T) - frames.nabla(t, X, Y) @ t.P.T)
    rhs28 = G(t, X, Y @ t.P.T) @ t.J.T + G(t, X, Y) @ (t.J @ t.P).T

    def pairs(draws):  # (2, n, 4), factor by factor, as (n, 2, 4)
        return np.moveaxis(draws, 0, -2)

    x = pairs(qt.unit_rows(rng, rng.standard_normal((2, n, 4))))
    z = pw.project_components(x, pairs(rng.standard_normal((2, n, 4))))
    jz = pw.j_components(x, z)
    r = (2.0 * pw.p_components(x, jz) - jz) / SQRT3 - pw.q_components(z)
    xf = frames.frame_coords_components(x, z)
    z2 = pw.project_components(x, pairs(rng.standard_normal((2, n, 4))))
    yf = frames.frame_coords_components(x, z2)

    residuals = {
        "G-antisymmetry": [gn(t, G(t, X, Y) + G(t, Y, X))],
        "G-J-anticommute": [gn(t, G(t, X, Y @ t.J.T) + G(t, X, Y) @ t.J.T)],
        "G-skew-adjoint": [np.abs(g(Z, G(t, X, Y)) + g(Y, G(t, X, Z)))],
        "G-inner-product": [np.abs(lhs26 - rhs26)],
        "P-derivative": [gn(t, lhs28 - rhs28)],
        "P-G-compatibility": [gn(t, G(t, X, Y) @ t.P.T + G(t, X @ t.P.T, Y @ t.P.T))],
        "Q-from-P-J": [np.sqrt(np.abs(pw.metric_components(x, r, r)))],
        "flat-connection-relation": [frames.connection_relation_residual(t, x, X, Y)],
        "curvature-two-routes": [gn(t, frames.curvature(t, X, Y, Z)
                                    - frames.curvature_closed_form(t, X, Y, Z))],
        "frame-vs-pointwise": [
            np.abs(frames.frame_coords_components(x, jz) - xf @ t.J.T),
            np.abs(frames.frame_coords_components(x, pw.p_components(x, z)) - xf @ t.P.T),
            np.abs(pw.metric_components(x, z, z2) - g(xf, yf))],
    }
    return {cid: verify._worst(*r) for cid, r in residuals.items()}


def test_structure_suite_matches_unstacked_recomputation_bitwise():
    # the suite forms P Z once and maps Z, Z', J Z and P Z in stacked calls;
    # its residuals equal those of the identities written out one by one
    for seed in (0, 11, 29):
        rep = verify.run_structure_suite(seed=seed, samples=50)
        expected = _structure_residuals_unstacked(seed, 50)
        got = {c.check_id: c.max_residual for c in rep.checks}
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in expected.items()}, seed


def _failures(margin):
    """Ids of the failed checks of both ambient suites, each asserted to
    miss its tolerance by more than the margin."""
    failed = []
    for suite in (verify.run_structure_suite, verify.run_isometry_suite):
        for c in suite(seed=3, samples=50).checks:
            if not c.passed:
                assert c.max_residual > margin * c.tolerance, c.check_id
                failed.append(c.check_id)
    return failed


def test_p_checks_fail_on_a_scaled_p(monkeypatch):
    # a P with its first factor scaled by 1 + 1e-9 fails every check that
    # reads P, and only those; a uniform scale would pass swap-P-commute,
    # since d(swap) commutes with any multiple of P
    p_components = pw.p_components

    def scaled(x, z):
        return p_components(x, z) * np.array([[1.0 + 1e-9], [1.0]])

    monkeypatch.setattr(pw, "p_components", scaled)
    assert _failures(margin=1e3) == [
        "Q-from-P-J", "frame-vs-pointwise", "swap-J-anticommute", "swap-P-commute",
        "twist-J-anticommute", "twist-P-twist"]


def test_twist_differential_checks_fail_on_a_scaled_differential(monkeypatch):
    # the twist's differential scaled by 1 + 1e-5 fails its pullback and the
    # central differences; its J and P relations are linear in it and hold
    differential = iso.IsometryMap.differential_components

    def scaled(self, x, z):
        dz = differential(self, x, z)
        return dz * (1.0 + 1e-5) if self.tag == iso.TWIST else dz

    monkeypatch.setattr(iso.IsometryMap, "differential_components", scaled)
    assert _failures(margin=10.0) == ["pullback-twist", "differential-vs-fd"]


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


@pytest.mark.parametrize("suite,products", [
    # P Z, P J Z, the frame coefficients of Z, Z', J Z and P Z in one call,
    # g(R, R) and g(Z, Z') in one call, and the flat connection; P and g take
    # two products for both factors, each other map one
    (verify.run_structure_suite, 2 + 2 + 1 + 2 + 3),
    # at the base point P Z and g(Z, Z'); the twist's and the translation's
    # images and differentials; the pullbacks, P and J at the images and the
    # four g-distances, one call each; the FD stencil ends and their twist
    # and translation images; the composition checks
    (verify.run_isometry_suite, 2 + 2 + (1 + 2) + (5 + 2) + 2 + 2 + 2 + 2 + 2 + (1 + 2) + 9),
])
def test_ambient_suites_make_a_fixed_number_of_products(monkeypatch, suite, products):
    # each suite evaluates each identity once over the batch, with the
    # vectors it maps at one point stacked, so its quaternion products are
    # a fixed count, whatever the sample count
    calls = []
    mul = qt.mul

    def counting_mul(q1, q2):
        calls.append(1)
        return mul(q1, q2)

    monkeypatch.setattr(qt, "mul", counting_mul)
    counts = []
    for samples in (1, 10, 40):
        calls.clear()
        suite(seed=3, samples=samples)
        counts.append(len(calls))
    assert counts == [products] * 3


@pytest.mark.parametrize("family,params", [("m3", {"r": 0.6}),
                                           ("m6", {"k": 0.6, "l": 0.8})])
def test_hypersurface_suite_makes_no_per_sample_chart_calls(monkeypatch, family, params):
    # every identity is evaluated once over the suite's samples, so neither
    # the quaternion products, the chart calls, the level-set normals nor
    # the finite-difference derivative steps grow with the sample count
    calls = {"mul": 0, "pushforward": 0, "covariant_fd": 0, "level_set": 0}
    mul, pushforward, covariant_fd = qt.mul, hs.Immersion.pushforward, hs._covariant_fd
    level_set = hs._level_set

    def counting_mul(q1, q2):
        calls["mul"] += 1
        return mul(q1, q2)

    def counting_pushforward(self, u):
        calls["pushforward"] += 1
        return pushforward(self, u)

    def counting_covariant_fd(*args):
        calls["covariant_fd"] += 1
        return covariant_fd(*args)

    def counting_level_set(level, p, q, hessian=False):
        calls["level_set"] += 1
        return level_set(level, p, q, hessian)

    monkeypatch.setattr(qt, "mul", counting_mul)
    monkeypatch.setattr(hs.Immersion, "pushforward", counting_pushforward)
    monkeypatch.setattr(hs, "_covariant_fd", counting_covariant_fd)
    monkeypatch.setattr(hs, "_level_set", counting_level_set)
    counts = []
    for samples in (2, 5):
        calls.update(mul=0, pushforward=0, covariant_fd=0, level_set=0)
        verify.run_hypersurface_suite(family, params, seed=3, samples=samples)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert all(n > 0 for n in counts[0].values())
    # the analysis, and one stencil for transport, Gauss, Codazzi and for
    # m1-m3 the leaf curvature; each charts its points and takes their
    # normals once
    assert counts[0]["pushforward"] == 2
    assert counts[0]["level_set"] == 2


@pytest.mark.parametrize("family,params", verify.DEFAULT_BATTERY)
def test_hypersurface_suite_takes_no_svd(monkeypatch, family, params):
    # the normal and the shape operator come from the family's level set,
    # at the analysed points and on the stencils alike
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rep = verify.run_hypersurface_suite(family, params, seed=5, samples=3)
    assert all(c.passed for c in rep.checks)
    assert calls == []


ALL_FAMILIES = [("m1", {"r": 0.6}), ("m2", {"r": 0.6}), ("m3", {"r": 1.0}),
                ("m4", {"k": 0.6, "l": 0.8}), ("m5", {"k": 0.6, "l": 0.8}),
                ("m6", {"k": 0.8, "l": 0.6})]


def _spy(monkeypatch, name):
    """The argument tuples of every call to hs.<name>, from now on."""
    calls = []
    function = getattr(hs, name)

    def spy(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(hs, name, spy)
    return calls


def test_hopf_identity_directions_are_the_samples_x_and_y_off_u(monkeypatch):
    # the suite's X and Y reach the stencil first; the Hopf identity takes
    # them with U projected out, unit and in span(X, U), span(Y, U)
    stencils = _spy(monkeypatch, "stencil_residuals")
    hopfs = _spy(monkeypatch, "hopf_identity_residual")
    for seed in range(2):
        verify.run_default_hypersurface_suites(seed=seed, samples=5)
    assert len(stencils) == len(hopfs) == 2 * len(verify.DEFAULT_BATTERY)
    for (_, x5, y5, _), (data, xp, yp) in zip(stencils, hopfs):
        u_hat = data.eta / np.linalg.norm(data.eta, axis=-1, keepdims=True)
        for v, d in ((x5[:len(data)], xp), (y5[:len(data)], yp)):
            assert np.max(np.abs(np.linalg.norm(d, axis=-1) - 1.0)) <= 1e-15
            assert np.max(np.abs(np.sum(d * u_hat, axis=-1))) <= 1e-14
            w = v - np.sum(v * u_hat, axis=-1, keepdims=True) * u_hat
            w /= np.linalg.norm(w, axis=-1, keepdims=True)
            off = (d - np.sum(d * u_hat, axis=-1, keepdims=True) * u_hat
                   - np.sum(d * w, axis=-1, keepdims=True) * w)
            assert np.max(np.abs(off)) <= 1e-14


@pytest.mark.parametrize("family,params", [("m1", {"r": 0.6}), ("m3", {"r": 1.0}),
                                           ("m4", {"k": 0.6, "l": 0.8}),
                                           ("m6", {"k": 0.6, "l": 0.8})])
def test_hopf_identity_fails_on_a_scaled_shape_operator(monkeypatch, family, params):
    # negative control: A scaled by 1 + 1e-5 at the suite's points and
    # directions breaks the identity on every row.  Measured at seed 0 with
    # 20 samples: the smallest scaled residual is 4.1e-8 (m4, m6) to
    # 2.4e-7 (m1), 4.1x to 24x the 1e-8 tolerance, with medians
    # 1.5e-6 to 4.5e-6; the unscaled rows are at most 7.2e-16
    hopfs = _spy(monkeypatch, "hopf_identity_residual")
    rep = verify.run_hypersurface_suite(family, params, seed=0, samples=20)
    (tolerance,) = [c.tolerance for c in rep.checks if c.check_id.endswith(":hopf-identity")]
    (data, xp, yp), = hopfs
    assert np.max(hs.hopf_identity_residual(data, xp, yp)) <= 1e-14
    scaled = dataclasses.replace(data, shape=data.shape * (1.0 + 1e-5))
    assert np.min(hs.hopf_identity_residual(scaled, xp, yp)) > tolerance


@pytest.mark.parametrize("family,params", ALL_FAMILIES)
def test_complement_residual_is_the_distribution_coefficient(family, params):
    # P U = J P xi, so both measure the part of P xi outside span(xi, U)
    data = hs.analyze_points(hs.make_example(family, **params),
                             hs.random_chart_points(np.random.default_rng(13), 5))
    res = verify._complement_residual(data)
    assert np.max(np.abs(res - data.c)) <= 1e-14


def test_complement_residual_is_c_at_any_unit_normal():
    """`P-preserves-complement` and `distribution-dim` read one quantity.

    P U = -P J xi = J P xi.  Write P xi = a xi + b U + r with r g-orthogonal
    to xi and U; then P U = -a U + b xi + J r, and J r is orthogonal to xi
    and U too, so the tangent part of P U off U is J r, whose g-norm is
    |r|_g = c.  Held on 2000 random g-unit xi, each with a random symmetric
    A on a QR frame of its g-complement, as point data with no chart: c
    spans [0.015, 1.0] and the two differ by at most 5.6e-16.
    """
    t = frames.get_tables()
    rng = np.random.default_rng(17)
    xi = rng.standard_normal((2000, 6))
    xi /= frames.g_norm(t, xi)[:, None]
    frame = complement_frame(t, xi[:, None, :])
    B = rng.standard_normal((2000, 5, 5))
    data = hs.HypersurfacePointData(None, None, None, None, None, frame, None,
                                    *hs._apparatus(xi, B + B.swapaxes(-1, -2), frame))
    assert np.min(data.c) > 0.01
    assert np.max(np.abs(verify._complement_residual(data) - data.c)) <= 1e-14


@pytest.mark.parametrize("family,params", [("m1", {"r": 0.6}), ("m4", {"k": 0.6, "l": 0.8})])
def test_complement_residual_fails_off_the_structure_vector(family, params):
    # the frame vector t_3 in place of U: P does not keep its complement
    U = hs.random_chart_points(np.random.default_rng(14), 5)
    U[0] = 0.0
    data = hs.analyze_points(hs.make_example(family, **params), U)
    t3 = dataclasses.replace(data, eta=np.tile(np.eye(5)[2], (5, 1)),
                             structure_vector=data.tangent_frame[:, 2])
    res = verify._complement_residual(t3)
    assert abs(res[0] - math.sqrt(3.0) / 2.0) <= 1e-12
    assert not verify._check("control", "", 5, 1e-12, res).passed


@pytest.mark.parametrize("family,params", [("m3", {"r": 0.6}), ("m6", {"k": 0.6, "l": 0.8})])
def test_hypersurface_suite_makes_no_per_sample_spectral_reports(monkeypatch, family,
                                                                 params):
    # one spectrum, with one eigh call, for the samples and the further
    # points, which the theta-r relation and the leaf geometry of m1-m3
    # read, whatever the sample count
    calls = {"spectral_report": 0, "eigh": 0}
    report, eigh = hs.spectral_report, np.linalg.eigh

    def counting_report(shape, frame):
        calls["spectral_report"] += 1
        return report(shape, frame)

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

    def zero_trace(shape, frame):
        # eigenvalues of sum zero, the rest of the spectrum as it is
        evals, *rest = report(shape, frame)
        return (np.zeros_like(evals), *rest)

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
    assert verify._worst(math.nan) == math.inf


def _worst_by_concatenation(*residuals) -> float:
    """The worst residual as one maximum over all the residuals
    concatenated, the reduction `verify._worst` replaces."""
    worst = float(np.max(np.concatenate([np.ravel(r) for r in residuals]), initial=0.0))
    return worst if math.isfinite(worst) else math.inf


def test_worst_residual_contract():
    nan, inf = math.nan, math.inf
    worst = verify._worst
    # a NaN anywhere, in a later argument or a later row, fails closed
    assert worst(np.array([1.0, 2.0]), np.array([0.5, nan])) == inf
    assert worst(0.5, np.array([[0.25], [nan]])) == inf
    assert worst(np.array(nan), 2.0) == inf
    assert worst(0.5, inf) == inf
    # negative values and -inf are floored to 0.0; no residuals give 0.0
    for residuals in ((-1.0, np.array([-inf, -3.0])), (np.array(-2.0),), ()):
        value = worst(*residuals)
        assert type(value) is float and value.hex() == (0.0).hex()
    # floats, 0-d arrays and (m,) arrays mix
    assert worst(0.25, np.array(0.75), np.array([0.125, 0.5]), np.array([[0.0625]])) == 0.75
    assert type(worst(np.array([1.0]))) is float
    # a boolean mask counts 1.0 where it is set, in any position
    assert worst(np.array([False, True]), 0.25) == 1.0
    assert worst(0.25, np.array([False, False])) == 0.25


def test_worst_residual_equals_the_concatenated_maximum_bitwise():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        residuals = []
        for _ in range(rng.integers(1, 5)):
            kind = rng.integers(3)
            values = rng.standard_normal(1 if kind < 2 else rng.integers(1, 9))
            values *= 10.0 ** rng.integers(-16, 3)
            if rng.random() < 0.1:
                values[rng.integers(len(values))] = rng.choice([math.nan, math.inf, -math.inf])
            residuals.append((float(values[0]), np.array(values[0]), values)[kind])
        assert (verify._worst(*residuals).hex()
                == _worst_by_concatenation(*residuals).hex()), residuals


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


@pytest.mark.xfail(strict=True, reason="the finite-difference truncation error grows with "
                   "the principal curvatures, roughly as their cube: at m1, r = 0.05 "
                   "(curvatures up to 20) reeb-transport reads 4.6e-7, gauss 5.9e-4 and "
                   "codazzi 3.2e-4, and at m4, k = 0.999999 (up to 707) gauss reads 0.040; "
                   "tolerances from an error model in the curvature and the step (ROADMAP "
                   "item 7) are to mend it")
@pytest.mark.parametrize("family,params", [
    ("m1", {"r": 0.05}), ("m4", {"k": 0.999999, "l": math.sqrt(1.0 - 0.999999 ** 2)})])
def test_stencil_checks_hold_at_large_curvature(family, params):
    rep = verify.run_hypersurface_suite(family, params, seed=0, samples=5)
    failed = {c.check_id.split(":", 1)[1] for c in rep.checks if not c.passed}
    assert not failed & {"reeb-transport", "gauss", "codazzi"}, failed


def _further_point_residuals(family, params, seed, samples):
    """The theta-r, double-eigenvalue-product and leaf-geometry residuals of
    a suite, recomputed on its further points alone: their own analysis,
    spectrum and stencil along their leaf pair, the frame vectors e0, e1."""
    M = hs.make_example(family, **params)
    rng2 = np.random.default_rng(seed + 1)
    extra = hs.analyze_points(M, np.stack([hs.random_chart_point(rng2)
                                           for _ in range(min(samples, 3))]))
    x5, y5 = (np.broadcast_to(e, (len(extra), 5)) for e in np.eye(5)[:2])
    tc = hs.theta_r_consistency(extra)
    lg = hs.leaf_geometry(extra)
    sectional = hs.stencil_residuals(extra, x5, y5, y5).sectional
    return {
        "theta-r": verify._worst(tc.r_residual, tc.spectrum_residual),
        "double-eigenvalue-product": verify._worst(tc.product_residual),
        "leaf-geometry": verify._worst(lg.sphere3_metric_residual * 1e3,
                                       np.abs(sectional - 0.75),
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
        def apply_components(self, x):
            image = np.array(swap.apply_components(x))
            image[..., 1, 1, 0] = math.nan
            return image

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
