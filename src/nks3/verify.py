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
    _bilinear,
    connection_relation_residual,
    curvature,
    curvature_closed_form,
    frame_coords_components,
    g_inner,
    g_norm,
    get_tables,
    lower,
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


def _worst(*residuals) -> float:
    """The largest of the residuals (floats, or arrays of any shape, a
    boolean mask counting 1.0 where it is set), and at least 0.0; 0.0 for
    no residuals.

    inf if it is not finite, a NaN residual included, so that its check
    fails rather than erroring; the builtin max would drop a NaN that is
    not its first argument.  One `np.maximum` reduction a residual, each
    starting from the largest value so far, so nothing is concatenated;
    each reduces in float64, which is what the check reports.
    """
    worst = 0.0
    for r in residuals:
        worst = np.maximum.reduce(r, axis=None, initial=worst, dtype=float)
    worst = float(worst)
    return worst if math.isfinite(worst) else math.inf


def _check(check_id: str, anchor: str, samples: int, tol: float,
           *residuals) -> CheckResult:
    """The check over `samples` samples whose residual is the worst of the
    residuals (floats or per-sample arrays)."""
    return CheckResult(check_id, anchor, samples, _worst(*residuals), tol)


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
    whole batch of samples, and P Z once for all the identities that read it.
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

    gxy, p_derivative = _g_and_p_derivative(t, X, Y)
    jx = X @ t.J.T
    # the pairings against Y, Z and W take each of them lowered once
    yl, zl, wl = (lower(t, v) for v in (Y, Z, W))
    lhs26 = g_inner(t, gxy, tensor_G(t, Z, W))
    rhs26 = (1.0 / 3.0) * (
        np.vecdot(zl, X) * np.vecdot(wl, Y)
        - np.vecdot(wl, X) * np.vecdot(zl, Y)
        + np.vecdot(zl, jx) * np.vecdot(yl, W @ t.J.T)
        - np.vecdot(wl, jx) * np.vecdot(yl, Z @ t.J.T)
    )

    p, q = qt.unit_rows(rng, rng.standard_normal((2, n, 4)))
    involution, frame_vs_pointwise = _pointwise_residuals(t, rng, p, q)

    checks = [
        _check("G-antisymmetry", "G(X,Y) + G(Y,X) = 0", n, 1e-12,
               g_norm(t, gxy + tensor_G(t, Y, X))),
        _check("G-J-anticommute", "G(X,JY) + J G(X,Y) = 0", n, 1e-12,
               g_norm(t, tensor_G(t, X, Y @ t.J.T) + gxy @ t.J.T)),
        _check("G-skew-adjoint", "g(G(X,Y),Z) + g(G(X,Z),Y) = 0", n, 1e-12,
               np.abs(np.vecdot(zl, gxy) + np.vecdot(yl, tensor_G(t, X, Z)))),
        _check("G-inner-product",
               "g(G(X,Y),G(Z,W)) = [g(X,Z)g(Y,W) - g(X,W)g(Y,Z) + g(JX,Z)g(JW,Y) - g(JX,W)g(JZ,Y)]/3",
               n, 1e-12, np.abs(lhs26 - rhs26)),
        _check("P-derivative", "2 (D_X P) Y = J G(X,PY) + J P G(X,Y)", n, 1e-12,
               p_derivative),
        _check("P-G-compatibility", "P G(X,Y) + G(PX,PY) = 0", n, 1e-12,
               g_norm(t, gxy @ t.P.T + tensor_G(t, X @ t.P.T, Y @ t.P.T))),
        _check("Q-from-P-J", "Q Z = (2 P J Z - J Z)/sqrt(3)", n, 1e-12,
               involution),
        _check("flat-connection-relation",
               "nablaE_X Y = D_X Y + [J G(X,PY) + J G(Y,PX)]/2", n, 1e-12,
               connection_relation_residual(t, p, q, X, Y)),
        _check("curvature-two-routes",
               "R(X,Y)Z from connection coefficients = closed form in g, J, P", n, 1e-12,
               g_norm(t, curvature(t, X, Y, Z) - curvature_closed_form(t, X, Y, Z))),
        _check("frame-vs-pointwise", "frame tables reproduce the pointwise J, P, g",
               n, 1e-12,
               *frame_vs_pointwise),
    ]
    return _finalize("structure", seed, checks, started)


def _g_and_p_derivative(t, X, Y) -> tuple:
    """G(X, Y) and the residual of `P-derivative`.  G and the connection D
    of (X, Y), and of (X, P Y), each take one outer product; all but G(X, Y)
    are freed on return."""
    g_d = np.stack((t.G, t.gamma))
    gxy, dxy = _bilinear(g_d, X, Y)
    gxpy, dxpy = _bilinear(g_d, X, Y @ t.P.T)
    lhs = 2.0 * (dxpy - dxy @ t.P.T)
    rhs = gxpy @ t.J.T + gxy @ (t.J @ t.P).T
    return gxy.copy(), g_norm(t, lhs - rhs)


def _pointwise_residuals(tables, rng, p, q) -> tuple:
    """Residuals of `Q-from-P-J` and of `frame-vs-pointwise` (three arrays)
    at the points (p, q), for tangent vectors Z and then Z' drawn from rng.

    P Z is formed once, for J Z and for the frame check of P, and Z, Z',
    J Z and P Z take their frame coefficients in one stacked call.  The
    intermediates are freed on return, before the suite's frame-tensor
    checks allocate theirs.
    """
    n = len(p)
    u, v = pw.project_components(p, q, rng.standard_normal((n, 4)),
                                 rng.standard_normal((n, 4)))
    qu, qv = pw.q_components(u, v)
    pu, pv = pw.p_components(p, q, u, v)
    ju, jv = pw._j_from_p(u, v, pu, pv)
    pju, pjv = pw.p_components(p, q, ju, jv)
    # R = (2 P J Z - J Z)/sqrt(3) - Q Z; g(R, R) and g(Z, Z') are one call
    ru = (2.0 * pju - ju) / SQRT3 - qu
    rv = (2.0 * pjv - jv) / SQRT3 - qv
    u2, v2 = pw.project_components(p, q, rng.standard_normal((n, 4)),
                                   rng.standard_normal((n, 4)))
    xf, yf, jxf, pxf = frame_coords_components(p, q, np.stack([u, u2, ju, pu]),
                                               np.stack([v, v2, jv, pv]))
    rr, gzz2 = pw.metric_components(p, q, np.stack([ru, u]), np.stack([rv, v]),
                                    np.stack([ru, u2]), np.stack([rv, v2]))
    return np.sqrt(np.abs(rr)), (np.abs(jxf - xf @ tables.J.T),
                                 np.abs(pxf - xf @ tables.P.T),
                                 np.abs(gzz2 - g_inner(tables, xf, yf)))


# ---------------------------------------------------------------------------
# isometry suite
# ---------------------------------------------------------------------------

def run_isometry_suite(seed: int, samples: int) -> SuiteReport:
    """Metric pullback, differential relations with J and P, closed-form
    differentials against central differences, and composition identities
    for the three isometry families.

    Each sample draws a point, two tangent vectors and the parameters of a
    two-sided translation; every identity is then evaluated once over the
    whole batch, with the vectors that one map takes at one point stacked
    on a leading axis, so that each product is formed once, and P at a
    point is formed once for P and J there.
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
    pz_raw = pw.p_components(*pt, *z)  # P Z once, for J Z and P Z
    jz = pw.project_components(*pt, *pw._j_from_p(*z, *pz_raw))
    pz = pw.project_components(*pt, *pz_raw)
    base = pw.metric_components(*pt, *z, *z2)  # g(Z, Z') at the base point

    def stack(*pairs):
        """Pairs (U, V) of (n, 4) arrays as one pair of (k, n, 4) stacks."""
        return tuple(np.stack(x) for x in zip(*pairs))

    # each map's images of Z, Z', J Z and P Z from one differential call
    maps = {"swap": iso.factor_swap(), "twist": iso.conjugation_twist(),
            "translation": iso.two_sided_translation(a, b, c)}
    image = {name: m.apply_components(*pt) for name, m in maps.items()}
    dz, dz2, djz, dpz = ({} for _ in range(4))
    vectors = stack(z, z2, jz, pz)
    for name, m in maps.items():
        dz[name], dz2[name], djz[name], dpz[name] = zip(
            *m.differential_components(*pt, *vectors))
    pulled = pw.metric_components(*stack(*image.values()), *stack(*dz.values()),
                                  *stack(*dz2.values()))

    # P at the swap and twist images, unprojected, for P d Z and, as at the
    # base point, for J d Z; then J of the twist's P d Z
    at_sw, at_tw = image["swap"], image["twist"]
    at, dz_images = stack(at_sw, at_tw), stack(dz["swap"], dz["twist"])
    pdz_raw = pw.p_components(*at, *dz_images)
    pdz_sw, pdz_tw = zip(*pw.project_components(*at, *pdz_raw))
    jdz_sw, jdz_tw = zip(*pw.project_components(*at, *pw._j_from_p(*dz_images, *pdz_raw)))
    jpdz_tw = pw.project_components(*at_tw, *pw.j_components(*at_tw, *pdz_tw))
    twisted = [-0.5 * x + (SQRT3 / 2.0) * y for x, y in zip(pdz_tw, jpdz_tw)]

    # g-distances of the four J and P relations, in one metric call
    pairs = ((djz["swap"], [-x for x in jdz_sw]), (dpz["swap"], pdz_sw),
             (djz["twist"], [-x for x in jdz_tw]), (dpz["twist"], twisted))
    d = stack(*((w1[0] - w2[0], w1[1] - w2[1]) for w1, w2 in pairs))
    g_dist = np.sqrt(np.maximum(
        pw.metric_components(*stack(at_sw, at_sw, at_tw, at_tw), *d, *d), 0.0))

    # the stencil ends do not depend on the map: formed once for all three
    ends = iso._stencil_ends(*pt, *z)

    def fd_gap(name):
        fd = iso._central_difference(maps[name], image[name], ends)
        return np.abs(fd[0] - dz[name][0]), np.abs(fd[1] - dz[name][1])

    comp = iso.composition_checks(rng, samples)

    n = samples
    checks = [
        _check(f"pullback-{name}", f"g(d({name}) Z, d({name}) Z') = g(Z, Z')", n, 1e-12,
               np.abs(g - base))
        for name, g in zip(maps, pulled)
    ] + [
        _check("swap-J-anticommute", "d(swap) J = -J d(swap)", n, 1e-12, g_dist[0]),
        _check("swap-P-commute", "d(swap) P = P d(swap)", n, 1e-12, g_dist[1]),
        _check("twist-J-anticommute", "d(twist) J = -J d(twist)", n, 1e-12, g_dist[2]),
        _check("twist-P-twist", "d(twist) P = (-P/2 + sqrt(3)/2 JP) d(twist)",
               n, 1e-12, g_dist[3]),
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
# X, Y and Z of the leaf's 3-sphere pair e0, e1 with Z = Y, (3, 1, 5)
_LEAF_PAIR = np.eye(5)[[0, 1, 1], None]

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

    # per sample: the chart point, then the three directions of the
    # transport, Codazzi and Gauss residuals, of which X and Y with U
    # projected out also give the Hopf identity's; then up to three further
    # points for the normal action, the moduli relations and the leaf
    # geometry, from their own generator; a sample's three directions are
    # one draw of three rows, the stream of three draws of one
    with allocation(f"{samples} samples"):
        U, D5 = np.empty((samples, 5)), np.empty((3, samples, 5))
    for i in range(samples):
        U[i] = hs.random_chart_point(rng)
        D5[:, i] = _unit(rng.standard_normal((3, 5)))
    U2 = hs.random_chart_points(np.random.default_rng(seed + 1), min(samples, 3))

    # both point sets in one analysis; each identity below is then
    # evaluated once over its batch
    analysed = hs.analyze_points(M, np.concatenate([U, U2]))
    data, extra = analysed[:samples], analysed[samples:]
    n, n_extra = samples, len(extra)

    # for m1-m3 the further points ride the samples' stencil, along their
    # leaf's 3-sphere pair e0, e1 with Z = Y, for the leaf's sectional curvature
    stencil_data, directions = data, D5
    if three_family:
        stencil_data = analysed
        directions = np.concatenate([D5, np.broadcast_to(_LEAF_PAIR, (3, n_extra, 5))], axis=1)
    stencil = hs.stencil_residuals(stencil_data, *directions)

    mult_off = (data.multiplicities
                != expected_mult + (0,) * (5 - len(expected_mult))).any(axis=-1)
    phi, eta = data.phi, data.eta
    u_hat = _unit(eta)
    XP, YP = _unit(D5[:2] - np.vecdot(D5[:2], u_hat)[..., None] * u_hat)

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
               np.abs(np.vecmat(eta, phi)),
               np.abs(phi + phi.swapaxes(1, 2))),
        _check(prefix + "spectrum-closed-form",
               "principal curvatures match their closed forms up to one global sign",
               n, 1e-6, hs.spectra_match(data.eigenvalues, expected)),
        _check(prefix + "multiplicity-pattern", f"multiplicity pattern {expected_mult}",
               n, 0.0, mult_off),
        _check(prefix + "distribution-dim", "P xi lies in span(xi, U)",
               n, 1e-12, data.c),
        _check(prefix + "P-preserves-complement",
               "P maps the structure-vector complement to itself",
               n, 1e-12, _complement_residual(data)),
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
               n, 1e-6, np.ptp(data.eigenvalues, axis=0)),
    ]

    # normal action, and for the round-sphere families the moduli relations
    # and leaf geometry, at the further points
    if three_family:
        r = params["r"]
        tc = hs.theta_r_consistency(extra)
        lg = hs.leaf_geometry(extra)
        trace = float(data.eigenvalues.sum(axis=-1).mean())
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
                   np.abs(stencil.sectional[n:] - 0.75),
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


def _complement_residual(data: hs.HypersurfacePointData) -> np.ndarray:
    """|(P U)^T - g(P U, U) U|_g per row, zero iff g(P X, U) = 0 for all X ⊥ U."""
    pu = data.tangent_components(np.matvec(get_tables().P, data.structure_vector))
    off = pu - np.vecdot(pu, data.eta)[:, None] * data.eta
    return np.sqrt(np.vecdot(off, off))


def _unit(v: np.ndarray) -> np.ndarray:
    """The rows of v (..., n) scaled to unit length."""
    return v / np.sqrt(np.vecdot(v, v))[..., None]


def run_default_hypersurface_suites(seed: int, samples: int) -> SuiteReport:
    """The standard battery over all six families, merged into one report."""
    started = time.perf_counter()
    checks = []
    for i, (family, params) in enumerate(DEFAULT_BATTERY):
        rep = run_hypersurface_suite(family, params, seed + i, samples)
        checks.extend(rep.checks)
    return _finalize("hypersurface", seed, checks, started)
