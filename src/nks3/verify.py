"""Structured verification suites with machine-readable reports.

Each suite evaluates a fixed list of identities over seeded random samples
and reports one CheckResult per identity: an id, a human-readable anchor
stating the identity, the sample count, the worst residual, the tolerance,
and the pass flag.  A non-finite residual always fails.  Reports are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import hypersurfaces as hs
from . import isometries as iso
from . import pointwise as pw
from . import quat as qt
from .errors import DomainError, allocation
from .frames import (
    _dot,
    _mv,
    connection_relation_residual,
    curvature,
    curvature_closed_form,
    frame_coords_components,
    g_inner,
    g_norm,
    get_tables,
    lower,
    nabla,
    tensor_G,
)

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    samples: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_residual) and self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list
    duration_ms: float
    environment: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "duration_ms": self.duration_ms,
            "environment": self.environment,
        }


def environment_fingerprint() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "float_eps": np.finfo(float).eps,
    }


def _finalize(suite: str, seed: int, checks: list, started: float) -> SuiteReport:
    return SuiteReport(
        suite=suite,
        seed=seed,
        checks=checks,
        duration_ms=(time.perf_counter() - started) * 1000.0,
        environment=environment_fingerprint(),
    )


def _sanitize(value: float) -> float:
    # non-finite residuals propagate as inf so the check fails rather than erroring
    v = float(value)
    return v if math.isfinite(v) else math.inf


def _worst(*residuals) -> float:
    """The largest of the residuals (floats or arrays), and at least 0.0.

    NaN if any residual is NaN, so that `_sanitize` fails its check; the
    builtin max would drop a NaN that is not its first argument.
    """
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals]), initial=0.0))


def _check(check_id: str, anchor: str, samples: int, tol: float,
           *residuals) -> CheckResult:
    """The check over `samples` samples whose residual is the worst of the
    residuals (floats or per-sample arrays)."""
    return CheckResult(check_id, anchor, samples, _sanitize(_worst(*residuals)), tol)


# ---------------------------------------------------------------------------
# structure suite
# ---------------------------------------------------------------------------

def run_structure_suite(seed: int, samples: int) -> SuiteReport:
    """Identity checks for the ambient structure tensors.

    Covers the antisymmetry, J-anticommutation, skew-adjointness and inner
    product expansion of the J-derivative tensor G, the derivative law and
    G-compatibility of the product structure, the expression of the factor
    involution through P and J, the relation between the flat product
    connection and the frame connection, the agreement of the curvature
    table with its closed form, and the pointwise-versus-frame agreement
    of J, P and the metric.  Each identity is evaluated once over the
    whole batch of samples.
    """
    if samples < 1:
        raise DomainError("samples must be at least 1")
    started = time.perf_counter()
    t = get_tables()
    rng = np.random.default_rng(seed)
    n = samples

    with allocation(f"{n} samples"):
        X = rng.standard_normal((n, 6))
        Y = rng.standard_normal((n, 6))
        Z = rng.standard_normal((n, 6))
        W = rng.standard_normal((n, 6))

    gxy = tensor_G(t, X, Y)
    jx = X @ t.J.T
    # the pairings against Y, Z and W take each of them lowered once
    yl, zl, wl = (lower(t, v) for v in (Y, Z, W))
    lhs26 = g_inner(t, gxy, tensor_G(t, Z, W))
    rhs26 = (1.0 / 3.0) * (
        _dot(zl, X) * _dot(wl, Y)
        - _dot(wl, X) * _dot(zl, Y)
        + _dot(zl, jx) * _dot(yl, W @ t.J.T)
        - _dot(wl, jx) * _dot(yl, Z @ t.J.T)
    )
    py = Y @ t.P.T
    lhs28 = 2.0 * (nabla(t, X, py) - nabla(t, X, Y) @ t.P.T)
    rhs28 = tensor_G(t, X, py) @ t.J.T + gxy @ (t.J @ t.P).T

    # pointwise factor involution against its P, J expression
    p, q = qt.unit_rows(rng, rng.standard_normal((2, n, 4)))
    u_raw = rng.standard_normal((n, 4))
    v_raw = rng.standard_normal((n, 4))
    u, v = pw.project_components(p, q, u_raw, v_raw)
    qu, qv = pw.q_components(u, v)
    ju, jv = pw.j_components(p, q, u, v)
    pju, pjv = pw.p_components(p, q, ju, jv)
    ru = (2.0 * pju - ju) / SQRT3 - qu
    rv = (2.0 * pjv - jv) / SQRT3 - qv

    xf = frame_coords_components(p, q, u, v)
    u2, v2 = pw.project_components(p, q, rng.standard_normal((n, 4)),
                                   rng.standard_normal((n, 4)))
    yf = frame_coords_components(p, q, u2, v2)

    checks = [
        _check("G-antisymmetry", "G(X,Y) + G(Y,X) = 0", n, 1e-12,
               g_norm(t, gxy + tensor_G(t, Y, X))),
        _check("G-J-anticommute", "G(X,JY) + J G(X,Y) = 0", n, 1e-12,
               g_norm(t, tensor_G(t, X, Y @ t.J.T) + gxy @ t.J.T)),
        _check("G-skew-adjoint", "g(G(X,Y),Z) + g(G(X,Z),Y) = 0", n, 1e-12,
               np.abs(_dot(zl, gxy) + _dot(yl, tensor_G(t, X, Z)))),
        _check("G-inner-product",
               "g(G(X,Y),G(Z,W)) = [g(X,Z)g(Y,W) - g(X,W)g(Y,Z) + g(JX,Z)g(JW,Y) - g(JX,W)g(JZ,Y)]/3",
               n, 1e-12, np.abs(lhs26 - rhs26)),
        _check("P-derivative", "2 (D_X P) Y = J G(X,PY) + J P G(X,Y)", n, 1e-12,
               g_norm(t, lhs28 - rhs28)),
        _check("P-G-compatibility", "P G(X,Y) + G(PX,PY) = 0", n, 1e-12,
               g_norm(t, gxy @ t.P.T + tensor_G(t, X @ t.P.T, Y @ t.P.T))),
        _check("Q-from-P-J", "Q Z = (2 P J Z - J Z)/sqrt(3)", n, 1e-12,
               np.sqrt(np.abs(pw.metric_components(p, q, ru, rv, ru, rv)))),
        _check("flat-connection-relation",
               "nablaE_X Y = D_X Y + [J G(X,PY) + J G(Y,PX)]/2", n, 1e-12,
               connection_relation_residual(t, p, q, X, Y)),
        _check("curvature-two-routes",
               "R(X,Y)Z from connection coefficients = closed form in g, J, P", n, 1e-12,
               g_norm(t, curvature(t, X, Y, Z) - curvature_closed_form(t, X, Y, Z))),
        _check("frame-vs-pointwise", "frame tables reproduce the pointwise J, P, g",
               n, 1e-12,
               np.abs(frame_coords_components(p, q, ju, jv) - xf @ t.J.T),
               np.abs(frame_coords_components(p, q, *pw.p_components(p, q, u, v))
                      - xf @ t.P.T),
               np.abs(pw.metric_components(p, q, u, v, u2, v2) - g_inner(t, xf, yf))),
    ]
    return _finalize("structure", seed, checks, started)


# ---------------------------------------------------------------------------
# isometry suite
# ---------------------------------------------------------------------------

def run_isometry_suite(seed: int, samples: int) -> SuiteReport:
    """Metric pullback, differential relations with J and P, closed-form
    differentials against central differences, and composition identities
    for the three isometry families.

    Each sample draws a point, two tangent vectors and the parameters of a
    two-sided translation; every identity is then evaluated once over the
    whole batch.
    """
    if samples < 1:
        raise DomainError("samples must be at least 1")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)

    # per sample: p, q, the raw (U, V) of two tangent vectors, then a, b, c,
    # all samples in one array; the unit slots are scaled as `sample_unit`
    # scales its draw
    with allocation(f"{samples} samples"):
        draws = rng.standard_normal((samples, 9, 4))
    qt.unit_rows(rng, draws[:, :2])
    qt.unit_rows(rng, draws[:, 6:])
    p, q, u1, v1, u2, v2, a, b, c = draws.transpose(1, 0, 2).copy()
    pt = (p, q)
    z = pw.project_components(p, q, u1, v1)
    z2 = pw.project_components(p, q, u2, v2)

    maps = {"swap": iso.factor_swap(), "twist": iso.conjugation_twist(),
            "translation": iso.two_sided_translation(a, b, c)}
    image = {name: m.apply_components(*pt) for name, m in maps.items()}
    dz = {name: m.differential_components(*pt, *z) for name, m in maps.items()}

    def J(at, w):
        return pw.project_components(*at, *pw.j_components(*at, *w))

    def P(at, w):
        return pw.project_components(*at, *pw.p_components(*at, *w))

    def g_dist(at, w1, w2):
        return pw.g_norm_components(*at, w1[0] - w2[0], w1[1] - w2[1])

    base = pw.metric_components(*pt, *z, *z2)  # g(Z, Z') at the base point

    def pullback(name):
        dz2 = maps[name].differential_components(*pt, *z2)
        return np.abs(pw.metric_components(*image[name], *dz[name], *dz2) - base)

    def fd_gap(name):
        fd = iso.differential_fd_components(maps[name], *pt, *z)
        return np.abs(fd[0] - dz[name][0]), np.abs(fd[1] - dz[name][1])

    jz, pz = J(pt, z), P(pt, z)

    def anticommute(name):
        return g_dist(image[name], maps[name].differential_components(*pt, *jz),
                      [-x for x in J(image[name], dz[name])])

    pdz = P(image["twist"], dz["twist"])
    jpdz = J(image["twist"], pdz)
    twisted = [-0.5 * x + (SQRT3 / 2.0) * y for x, y in zip(pdz, jpdz)]
    comp = iso.composition_checks(rng, samples)

    n = samples
    checks = [
        _check("pullback-swap", "g(d(swap) Z, d(swap) Z') = g(Z, Z')",
               n, 1e-12, pullback("swap")),
        _check("pullback-twist", "g(d(twist) Z, d(twist) Z') = g(Z, Z')",
               n, 1e-12, pullback("twist")),
        _check("pullback-translation", "g(d(translation) Z, d(translation) Z') = g(Z, Z')",
               n, 1e-12, pullback("translation")),
        _check("swap-J-anticommute", "d(swap) J = -J d(swap)",
               n, 1e-12, anticommute("swap")),
        _check("swap-P-commute", "d(swap) P = P d(swap)",
               n, 1e-12, g_dist(image["swap"], maps["swap"].differential_components(*pt, *pz),
                                P(image["swap"], dz["swap"]))),
        _check("twist-J-anticommute", "d(twist) J = -J d(twist)",
               n, 1e-12, anticommute("twist")),
        _check("twist-P-twist", "d(twist) P = (-P/2 + sqrt(3)/2 JP) d(twist)",
               n, 1e-12, g_dist(image["twist"],
                                maps["twist"].differential_components(*pt, *pz), twisted)),
        _check("differential-vs-fd", "closed-form differentials match central differences",
               n, 1e-6, *fd_gap("swap"), *fd_gap("twist"), *fd_gap("translation")),
        _check("swap-involution", "swap o swap = id",
               n, 1e-12, comp["swap-involution"]),
        _check("twist-involution", "twist o twist = id",
               n, 1e-12, comp["twist-involution"]),
        _check("translation-through-swap", "T(a,b,c) o swap = swap o T(b,a,c)",
               n, 1e-12, comp["translation-through-swap"]),
        _check("translation-through-twist", "T(a,b,c) o twist = twist o T(c,b,a)",
               n, 1e-12, comp["translation-through-twist"]),
    ]
    return _finalize("isometry", seed, checks, started)


# ---------------------------------------------------------------------------
# hypersurface suite
# ---------------------------------------------------------------------------

EXPECTED_CLASS = {"m1": hs.PLUS, "m2": hs.MINUS, "m3": hs.REFLECT}

DEFAULT_BATTERY = (
    ("m1", {"r": 0.6}), ("m1", {"r": 1.0}),
    ("m2", {"r": 0.6}), ("m2", {"r": 1.0}),
    ("m3", {"r": 0.6}), ("m3", {"r": 1.0}),
    ("m4", {"k": 0.6, "l": 0.8}),
    ("m5", {"k": 0.6, "l": 0.8}),
    ("m6", {"k": 0.6, "l": 0.8}),
)

def run_hypersurface_suite(family: str, params: dict, seed: int,
                           samples: int) -> SuiteReport:
    """Pointwise hypersurface checks for one family at one parameter value.

    Covers the Hopf property, the vanishing of the structure-vector
    principal curvature, the spectrum against its closed form (as a
    multiset up to one global sign), the multiplicity pattern, the
    2-dimensionality of the distribution spanned by the normal, the
    structure vector and their product-structure images, invariance of the
    structure-vector complement under P, the trace against the minimality
    locus, transport of the structure vector, the Gauss and Codazzi
    relations, the Hopf pointwise identity, and for the round-sphere
    families the theta-r relation and the leaf geometry.
    """
    if samples < 1:
        raise DomainError("samples must be at least 1")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    M = hs.make_example(family, **params)
    prefix = family + "(" + ",".join(f"{k}={v:g}" for k, v in sorted(params.items())) + "):"

    expected = hs.expected_spectrum(family, **params)
    three_family = family in hs.THREE_CURVATURE_FAMILIES
    expected_mult = (2, 1, 2) if three_family else (1, 1, 1, 1, 1)

    t = get_tables()

    # per sample: the chart point, then the three directions of the
    # transport, Codazzi and Gauss residuals; then up to three further
    # points for the normal action, the moduli relations and the leaf
    # geometry, from their own generator
    with allocation(f"{samples} samples"):
        U, X5, Y5, Z5 = (np.empty((samples, 5)) for _ in range(4))
    for i in range(samples):
        U[i] = hs.random_chart_point(rng)
        X5[i], Y5[i], Z5[i] = (_unit(rng.standard_normal(5)) for _ in range(3))
    U2 = hs.random_chart_points(np.random.default_rng(seed + 1), min(samples, 3))

    # both point sets in one analysis and one spectral report; each
    # identity below is then evaluated once over its batch
    analysed = hs.analyze_points(M, np.concatenate([U, U2]))
    data, extra = analysed[:samples], analysed[samples:]
    n, n_extra = samples, len(extra)
    reports = hs.spectral_report(analysed)

    # for m1-m3 the further points ride the samples' stencil, along their
    # leaf's 3-sphere pair with Z = Y, for the leaf's sectional curvature
    stencil_data, directions = data, (X5, Y5, Z5)
    if three_family:
        lx5, ly5 = hs.leaf_directions(extra)
        stencil_data = analysed
        directions = tuple(np.concatenate([v, w]) for v, w in
                           zip(directions, (lx5, ly5, ly5)))
    stencil = hs.stencil_residuals(stencil_data, *directions)

    rep = reports[:n]
    spectra = rep.eigenvalues
    mult_off = np.any(rep.multiplicities != expected_mult + (0,) * (5 - len(expected_mult)),
                      axis=-1)
    basis = _structure_complement(data)
    XP = _unit(basis[:, 0] + 0.3 * basis[:, 2])
    YP = _unit(basis[:, 1] - 0.5 * basis[:, 3])
    phi, eta = data.phi, data.eta

    checks = [
        _check(prefix + "hopf", "A U = alpha U (Hopf condition)",
               n, 1e-6, data.hopf_residual),
        _check(prefix + "alpha-zero", "alpha = 0 on the example families",
               n, 1e-6, np.abs(data.alpha)),
        _check(prefix + "shape-symmetric", "shape operator symmetric in an orthonormal frame",
               n, 1e-6, data.symmetry_residual),
        # the almost contact relations in the orthonormal tangent frame
        _check(prefix + "almost-contact", "phi^2 = -id + eta (x) U, eta o phi = 0, phi skew",
               n, 1e-12,
               np.abs(phi @ phi + np.eye(5) - eta[:, :, None] * eta[:, None, :]),
               np.abs((eta[:, None, :] @ phi)[:, 0]),
               np.abs(phi + np.swapaxes(phi, 1, 2))),
        _check(prefix + "spectrum-closed-form",
               "principal curvatures match their closed forms up to one global sign",
               n, 1e-6, hs.spectra_match(spectra, expected)),
        _check(prefix + "multiplicity-pattern", f"multiplicity pattern {expected_mult}",
               n, 0.0, mult_off.astype(float)),
        _check(prefix + "distribution-dim", "P xi lies in span(xi, U)",
               n, 1e-12, data.c),
        _check(prefix + "P-preserves-complement",
               "P maps the structure-vector complement to itself",
               n, 1e-8, *(np.abs(g_inner(t, _mv(t.P, data.from_components(basis[:, j])),
                                         data.structure_vector)) for j in range(4))),
        _check(prefix + "reeb-transport", "D_X U = phi A X - G(X, xi)",
               n, 1e-8, stencil.transport[:n]),
        _check(prefix + "gauss", "induced curvature matches the Gauss relation",
               n, 1e-5, stencil.gauss[:n]),
        _check(prefix + "codazzi", "shape-operator derivative matches the Codazzi relation",
               n, 1e-6, stencil.codazzi[:n]),
        _check(prefix + "hopf-identity",
               "pointwise identity tying A, phi, G on the structure-vector complement",
               n, 1e-8, hs.hopf_identity_residual(data, XP, YP)),
        _check(prefix + "eigenvalue-constancy",
               "principal curvatures constant across sample points",
               n, 1e-6, np.ptp(spectra, axis=0)),
    ]

    # normal action, and for the round-sphere families the moduli relations
    # and leaf geometry, at the further points
    if three_family:
        r = params["r"]
        tc = hs.theta_r_consistency(extra, reports[n:])
        lg = hs.leaf_geometry(extra, stencil.sectional[n:], reports[n:])
        trace = float(np.mean(rep.trace))
        checks += [
            _check(prefix + "normal-action", f"normal-action class {EXPECTED_CLASS[family]}",
                   n_extra, 1e-12, hs.normal_action_residual(extra, EXPECTED_CLASS[family])),
            _check(prefix + "theta-r",
                   "r = sqrt(3) theta / sqrt(1 + 2 theta^2) and the theta closed forms",
                   n_extra, 1e-6, tc.r_residual, tc.spectrum_residual),
            _check(prefix + "double-eigenvalue-product",
                   "product of double curvatures = -1/12",
                   n_extra, 1e-8, tc.product_residual),
            _check(prefix + "leaf-geometry",
                   "factor leaves carry 4/3 and 4r^2/3 round metrics; curvatures 3/4 and (1+2 theta^2)/(4 theta^2)",
                   n_extra, 1e-3,
                   lg.sphere3_metric_residual * 1e3,  # scale to the curvature tolerance
                   np.abs(lg.sphere3_sectional - 0.75),
                   lg.sphere2_metric_residual * 1e3,
                   lg.sphere2_curvature_residual * 1e3),
        ]
        if abs(r - 1.0) < 1e-12:
            checks.append(_check(prefix + "minimal-at-r1", "trace A = 0 exactly at r = 1",
                                 n, 1e-6, abs(trace)))
        else:
            bound = math.sqrt(1.0 - r * r) / r  # half the closed-form trace
            checks.append(_check(prefix + "nonminimal-below-r1",
                                 "|trace A| >= sqrt(1 - r^2) / r, half its closed form, for r < 1",
                                 n, 0.0, bound - abs(trace)))
    else:
        classes = set(hs.classify_normal_action(extra).tolist())
        consistent = len(classes) == 1 and not classes & {hs.OTHER, hs.UNDEFINED}
        checks.append(_check(prefix + "normal-action-defined",
                             "normal action falls in one consistent class",
                             n_extra, 0.0, 0.0 if consistent else 1.0))

    return _finalize("hypersurface", seed, checks, started)


def _structure_complement(data: hs.HypersurfacePointData) -> np.ndarray:
    """Orthonormal bases (m, 4, 5) of the tangent directions orthogonal to U.

    Gram-Schmidt on the coordinate vectors with U projected out, row by row
    in the same order: a vector of norm at most 1e-8 after the projections
    is skipped in its row, and a row left with fewer than four vectors has
    NaN in their place.
    """
    eta = data.eta
    rows = np.arange(len(eta))
    basis = np.full((len(eta), 4, 5), np.nan)
    found = np.zeros(len(eta), dtype=int)
    for i in range(5):
        v = np.zeros_like(eta)
        v[:, i] = 1.0
        v = v - _dot(v, eta)[:, None] * eta / _dot(eta, eta)[:, None]
        for j in range(i):
            b = basis[:, j]
            v = np.where((found > j)[:, None], v - _dot(v, b)[:, None] * b, v)
        n = np.sqrt(_dot(v, v))
        keep = (n > 1e-8) & (found < 4)
        slot = np.minimum(found, 3)
        scale = np.where(keep, n, 1.0)[:, None]  # a skipped vector may be 0
        basis[rows, slot] = np.where(keep[:, None], v / scale, basis[rows, slot])
        found += keep
    return basis


def _unit(v: np.ndarray) -> np.ndarray:
    """The rows of v (..., n) scaled to unit length."""
    return v / np.sqrt(_dot(v, v))[..., None]


def run_default_hypersurface_suites(seed: int, samples: int) -> SuiteReport:
    """The standard battery over all six families, merged into one report."""
    started = time.perf_counter()
    checks = []
    for i, (family, params) in enumerate(DEFAULT_BATTERY):
        rep = run_hypersurface_suite(family, params, seed + i, samples)
        checks.extend(rep.checks)
    return _finalize("hypersurface", seed, checks, started)
