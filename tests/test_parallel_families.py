"""Identities of the normal direction that tie the families to the ambient
curvature (ROADMAP item 23).

* The Jacobi operator R_xi = R(., xi) xi on the tangent space xi-perp has
  the spectrum {0, 1/12, 1/12, 3/4, 3/4} at every analysed point of all six
  families, while a random unit xi gives another spectrum.
* Along the unit normal the parameter moves at unit rate, dr/ds =
  -sqrt(1 - r^2) for r and dk/ds = +sqrt(1 - k^2) for k, and the closed-form
  spectra satisfy the trace form of the Riccati equation,
  d(tr A)/ds = |A|^2 + Ric(xi, xi) = |A|^2 + 5/3.
"""

import math

import numpy as np
import pytest

from nks3 import frames
from nks3 import hypersurfaces as hs

from level_sets import complement_frame

T = frames.get_tables()
FAMILY_PARAMS = {"m1": dict(r=0.6), "m2": dict(r=0.6), "m3": dict(r=1.0),
                 "m4": dict(k=0.6, l=0.8), "m5": dict(k=0.6, l=0.8), "m6": dict(k=0.6, l=0.8)}
JACOBI_SPECTRUM = np.array([0.0, 1 / 12, 1 / 12, 3 / 4, 3 / 4])
JACOBI_TOL = 1e-14  # about a hundred ulps of the largest eigenvalue, 3/4
STEP = 1e-6
# the rounding error of the central difference, eps |tr A| / STEP, is about
# 1e-9 at r = 0.3; its truncation error, STEP^2 |tr A'''| / 6, far less
TRACE_TOL = 5e-9


def jacobi(basis, xi):
    """g(R(e_i, xi) xi, e_j) over the rows e_i of basis (..., 5, 6)."""
    x = xi[..., None, :]
    rows = frames.curvature_closed_form(T, basis, x, x)
    return frames.g_inner(T, rows[..., :, None, :], basis[..., None, :, :])


def jacobi_gap(basis, xi):
    """The largest gap of the Jacobi operator's spectrum to JACOBI_SPECTRUM."""
    return np.abs(np.linalg.eigvalsh(jacobi(basis, xi)) - JACOBI_SPECTRUM).max(axis=-1)


@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_jacobi_operator_of_the_normal(family):
    M = hs.make_example(family, **FAMILY_PARAMS[family])
    d = hs.analyze_points(M, hs.random_chart_points(np.random.default_rng(23), 40))
    K = jacobi(d.tangent_frame, d.xi)
    assert np.abs(K - K.swapaxes(-1, -2)).max() <= JACOBI_TOL
    assert jacobi_gap(d.tangent_frame, d.xi).max() <= JACOBI_TOL


def test_a_random_unit_normal_has_another_jacobi_spectrum():
    xi = np.random.default_rng(2).standard_normal((200, 6))
    xi /= frames.g_norm(T, xi)[:, None]
    basis = complement_frame(T, xi[:, None, :])  # a g-orthonormal basis of xi-perp
    assert np.abs(frames.g_inner(T, basis[:, :, None, :], basis[:, None, :, :])
                  - np.eye(5)).max() <= JACOBI_TOL
    assert np.abs(frames.g_inner(T, basis, xi[:, None, :])).max() <= JACOBI_TOL
    # the smallest gap reads 3.2e-4 and the median 0.065
    gaps = jacobi_gap(basis, xi)
    assert gaps.min() > 1e-5 and np.median(gaps) > 0.01


def _spectrum(family, value):
    if family in hs.THREE_CURVATURE_FAMILIES:
        return hs.expected_spectrum(family, r=value)
    return hs.expected_spectrum(family, k=value, l=math.sqrt(1.0 - value * value))


def _trace_sides(family, value, sign=1.0):
    """(d(tr A)/ds, |A|^2 + 5/3) of the closed-form spectrum at r or k =
    value, with the parameter's rate along the normal times sign."""
    rate = math.sqrt(1.0 - value * value)
    if family in hs.THREE_CURVATURE_FAMILIES:
        rate = -rate
    d_trace = (_spectrum(family, value + STEP).sum()
               - _spectrum(family, value - STEP).sum()) / (2.0 * STEP)
    return d_trace * sign * rate, float(np.sum(_spectrum(family, value) ** 2)) + 5.0 / 3.0


@pytest.mark.parametrize("family", FAMILY_PARAMS)
@pytest.mark.parametrize("value", [0.3, 0.6, 0.9])
def test_trace_of_the_riccati_equation(family, value):
    lhs, rhs = _trace_sides(family, value)
    assert abs(lhs - rhs) <= TRACE_TOL
    if family in hs.THREE_CURVATURE_FAMILIES:
        # tr A = 2 sqrt(1 - r^2) / r and, with lambda beta = -1/12,
        # |A|^2 = 2 / r^2 - 5/3
        assert abs(lhs - 2.0 / value ** 2) <= TRACE_TOL
        assert abs(rhs - 2.0 / value ** 2) <= 1e-13


@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_the_rate_of_the_wrong_sign_misses(family):
    # by 4/r^2 >= 4.9 for r, and by at least 8.68 for k
    assert min(abs(lhs - rhs) for lhs, rhs in
               (_trace_sides(family, value, -1.0) for value in (0.3, 0.6, 0.9))) > 4.0
