"""Printed variants of the model's formulas, kept as counter-examples.

The library implements one formula per quantity. The variants below are
other forms of the same quantities: two are algebraically equivalent and
the rest are wrong. The tests use them to show that the equivalent forms
agree with the library to floating point and that the wrong ones disagree
with Monte Carlo; tools/oracles/analytics_fixtures.py prints them beside
the library values. Pytest collects only test_*.py files, so this module is
imported, never collected.
"""

import math

import numpy as np
from scipy import special

from lobdiff.analytics import cone_geometry, drifted_duration_params, duration_survival


def _scales(params):
    cov = params.covariance()
    sb = math.sqrt(cov[0, 0])
    sa = math.sqrt(cov[1, 1])
    return sb, sa, cov[0, 1] / (sb * sa)


# ---------------------------------------------------------------------------
# Uptick probability: two expressions equivalent to 1 - theta0 / alpha


def prob_up_arctan(x, y, params):
    """Driftless uptick probability in its arctangent form."""
    sb, sa, rho = _scales(params)
    X, Y = x / sb, y / sa
    c = math.sqrt((1.0 + rho) / (1.0 - rho))
    p = 0.5 - math.atan(c * (Y - X) / (Y + X)) / (2.0 * math.atan(c))
    return min(1.0, max(0.0, p))


def prob_up_arcsin(x, y, params):
    """Driftless uptick probability in its arcsine form."""
    sb, sa, rho = _scales(params)
    beta = math.asin(rho) / 2.0
    that = math.atan2(y / sa, x / sb)
    p = (
        math.pi / 2.0 + beta - math.atan2(math.sin(that - beta), math.cos(that + beta))
    ) / math.acos(-rho)
    return min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# Survival series with the literal radius


def survival_literal_radius(t, x, y, params):
    """duration_survival with the literal squared radius: scaled by the
    variances instead of the standard deviations, and divided by (1 - rho)
    instead of (1 - rho^2). It equals the standardized U only at rho = 0
    with unit scales.

    Scaling the state by c leaves theta0 unchanged and scales U by c^2, so
    the state is scaled by c = sqrt(U_literal / U_standardized).
    """
    cov = params.covariance()
    _, _, rho = _scales(params)
    var_b, var_a = cov[0, 0], cov[1, 1]
    u_lit = ((x / var_a) ** 2 + (y / var_b) ** 2 - 2.0 * rho * x * y / (var_a * var_b)) / (
        1.0 - rho
    )
    c = math.sqrt(u_lit / cone_geometry(x, y, params).U)
    return duration_survival(t, c * x, c * y, params)


# ---------------------------------------------------------------------------
# Drifted survival with the literal inner sine


def survival_drifted_literal_sine(t, x, y, params):
    """duration_survival_drifted with the inner eigenfunction frozen at
    theta = 1: sin(n pi / alpha) in place of sin(n pi theta / alpha).

    The quadrature is the per-node-window form, which gives every theta
    node its own r-window, at the library's default full resolution; the
    value is clamped to [0, 1] as the library clamps it.
    """
    n_theta, n_r, max_terms = 160, 400, 80
    geom = cone_geometry(x, y, params)
    dd = drifted_duration_params(params)
    alpha, theta0, r0 = geom.alpha, geom.theta0, geom.r0
    d = np.array([dd.d1, dd.d2])
    w0 = r0 * np.array([math.cos(theta0), math.sin(theta0)])
    log_pref = -float(d @ w0) - 0.5 * float(d @ d) * t

    nodes_t, weights_t = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * alpha * (nodes_t + 1.0)
    w_theta = 0.5 * alpha * weights_t
    proj = dd.d1 * np.cos(theta) + dd.d2 * np.sin(theta)

    srt = math.sqrt(t)
    peak = r0 + t * proj
    lo = np.maximum(0.0, peak - 12.0 * srt)
    hi = np.maximum(peak, 0.0) + 12.0 * srt
    nodes_r, weights_r = np.polynomial.legendre.leggauss(n_r)
    half = 0.5 * (hi - lo)
    R = lo[:, None] + half[:, None] * (nodes_r[None, :] + 1.0)
    W = half[:, None] * weights_r[None, :]

    expo = -((R - r0) ** 2) / (2.0 * t) + R * proj[:, None]
    shift = float(np.max(expo))
    base = R * np.exp(expo - shift) * W
    scale_log = log_pref + shift
    if scale_log < -745.0:
        return 0.0
    scale = math.exp(min(scale_log, 700.0))
    z = R * (r0 / t)

    total = 0.0
    quiet = 0
    for n in range(1, max_terms + 1):
        nu = n * math.pi / alpha
        inner = math.sin(nu)
        radial = np.sum(special.ive(nu, z) * base, axis=1)
        contrib = math.sin(nu * theta0) * float(np.sum(w_theta * inner * radial))
        total += contrib
        if abs(contrib) < 1e-13 * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    value = (2.0 / (alpha * t)) * scale * total
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Agent mix: the literal variance rate and correlation


def agent_literal_moments(m, l, gamma, mean_duration, e_v2):
    """(v2, rho) of the printed agent-mix display. Its rho matches pair-level
    simulation only when every trader is mixed (m = l = 0)."""
    s = 1.0 - l - m
    v2 = mean_duration * e_v2 * (m + l + 0.5 * (gamma**2 + (1.0 - gamma) ** 2) * s) / 4.0
    rho = -(s**2) * gamma * (1.0 - gamma) / (1.0 + s * (gamma**2 - gamma - 0.5))
    return v2, rho

