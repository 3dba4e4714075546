"""Closed-form price analytics of the diffusive bid/ask queue model.

After standardizing each coordinate by its volatility and shearing away the
correlation, the queue diffusion killed at the axes becomes a standard planar
Brownian motion in a wedge of angle alpha = arccos(-rho), with the
ask-depletion boundary at angle 0 and the bid-depletion boundary at alpha.
Everything here rides on that picture:

* ``prob_up``: the exit-side probability (chance the next price move is an
  uptick) -- harmonic in the wedge, hence a ratio of angles.
* ``duration_survival``: the law of the exit time itself, the classical
  Bessel series of Iyengar (1985) / Metzler (2010) in the squared
  standardized radius (driftless case).
* ``duration_survival_drifted``: the drifted exit time via an exponential
  change of measure over the killed wedge heat kernel (Zhou 2001), a
  Bessel-series double integral whose radial nodes are shared by every
  angular node, so each series term evaluates one row of Bessel values.
* ``duration_tail_index``: pi/(2 alpha); the driftless exit time is
  regularly varying, with no mean at rho = 0.
* ``agent_model_params`` / ``flow_limit_params``: maps from order-flow model
  primitives to the drift and covariance of the Gaussian limit.

Functions accept any params object exposing ``drift()`` and ``covariance()``
(both parameter classes in :mod:`.diffusion` do). Each quantity has one
formula here; printed variants that are equivalent or disagree with Monte
Carlo are kept as counter-examples in ``tests/literal_forms.py``.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .diffusion import SIDE_ASK, first_hits
from .flows import AgentMixSpec, PoissonFlowSpec

__all__ = [
    "ConeGeometry",
    "cone_geometry",
    "prob_up",
    "prob_up_mc",
    "duration_survival",
    "DriftedDurationParams",
    "drifted_duration_params",
    "duration_survival_drifted",
    "duration_tail_index",
    "agent_model_params",
    "flow_limit_params",
]


def _correlation(cov):
    sb = math.sqrt(cov[0, 0])
    sa = math.sqrt(cov[1, 1])
    return sb, sa, cov[0, 1] / (sb * sa)


def _require_driftless(params, what):
    drift = np.asarray(params.drift(), dtype=float)
    if drift[0] != 0.0 or drift[1] != 0.0:
        raise ValueError(f"{what} requires driftless parameters")


# ---------------------------------------------------------------------------
# Wedge coordinates


@dataclass(frozen=True)
class ConeGeometry:
    """Wedge coordinates of an interior queue state.

    alpha is the wedge angle arccos(-rho); theta0 the state's angular
    coordinate, measured from the ask-depletion edge (theta = 0 would mean
    an empty ask queue, theta = alpha an empty bid queue); U = r0**2 is the
    squared radial coordinate of the standardized state.
    """

    alpha: float
    theta0: float
    U: float
    r0: float

    def nu(self, n):
        """Bessel order (2n+1) pi / alpha of survival-series term n."""
        return (2 * n + 1) * math.pi / self.alpha


def cone_geometry(x, y, params):
    """Map an interior state (x, y) = (bid, ask) to wedge coordinates.

    The angle formulas are evaluated with atan2 instead of branch-by-branch
    arctangents, which removes the sign and quadrant fragility of the
    three-branch displays near rho = 0 and x = rho * y. The squared radius U
    is the quadratic form of the correlation-adjusted standardized
    coordinates: the radius the wedge Brownian motion actually starts from.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"state must be finite, got ({x}, {y})")
    if x <= 0 or y <= 0:
        raise ValueError(f"state must be strictly inside the orthant, got ({x}, {y})")
    sb, sa, rho = _correlation(params.covariance())
    X, Y = x / sb, y / sa
    alpha = math.acos(-rho)
    theta0 = math.atan2(Y * math.sqrt(1.0 - rho * rho), X - rho * Y)
    U = (X * X + Y * Y - 2.0 * rho * X * Y) / (1.0 - rho * rho)
    return ConeGeometry(alpha=alpha, theta0=theta0, U=U, r0=math.sqrt(U))


# ---------------------------------------------------------------------------
# Exit-side probability


def prob_up(x, y, params, n_paths=250_000, seed=0):
    """Probability that the next price move is an uptick from state (x, y).

    For driftless params this is the exit-side probability of the wedge
    Brownian motion, 1 - theta0 / alpha: certain as the ask queue empties
    (y -> 0), impossible as the bid queue empties, 1/2 on the diagonal of a
    symmetric book.

    With nonzero drift there is no closed form and the value falls back to
    bridge-corrected first-hit Monte Carlo with `n_paths` paths; call
    :func:`prob_up_mc` directly when the standard error is wanted.
    """
    drift = np.asarray(params.drift(), dtype=float)
    if drift[0] != 0.0 or drift[1] != 0.0:
        return prob_up_mc(x, y, params, n_paths=n_paths, seed=seed)[0]
    geom = cone_geometry(x, y, params)
    return min(1.0, max(0.0, 1.0 - geom.theta0 / geom.alpha))


def prob_up_mc(x, y, params, n_paths=250_000, seed=0, step="auto", chunk=8192):
    """Monte Carlo estimate of prob_up: returns (estimate, standard error)."""
    sides, _ = first_hits(params, (x, y), n_paths, seed=seed, step=step, chunk=chunk)
    p = float(np.mean(sides == SIDE_ASK))
    se = math.sqrt(max(p * (1.0 - p), 0.25 / n_paths) / n_paths)
    return p, se


# ---------------------------------------------------------------------------
# Duration until the next price move: driftless series


def duration_survival(t, x, y, params, series_tol=1e-10, max_terms=400):
    """P[the next price change happens after t], from state (x, y), driftless.

    Evaluates the wedge exit-time survival series term by term with
    exponentially scaled Bessel functions (so no overflow at small t), and
    stops once three consecutive terms contribute less than series_tol
    everywhere on the t grid. t may be a scalar or an array.
    """
    _require_driftless(params, "the survival series")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be > 0")
    geom = cone_geometry(x, y, params)
    z = geom.U / (4.0 * t_arr)
    prefactor = np.sqrt(2.0 * geom.U / (math.pi * t_arr))
    total = np.zeros_like(t_arr)
    quiet = 0
    for n in range(max_terms):
        nu = geom.nu(n)
        # ive(v, z) = e^{-z} I_v(z) absorbs the e^{-U/4t} prefactor exactly.
        term = (math.sin(nu * geom.theta0) / (2 * n + 1)) * (
            special.ive((nu - 1.0) / 2.0, z) + special.ive((nu + 1.0) / 2.0, z)
        )
        total += term
        if np.max(np.abs(term)) < series_tol:
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        warnings.warn(
            f"survival series still above tolerance after {max_terms} terms",
            RuntimeWarning,
        )
    out = np.clip(prefactor * total, 0.0, 1.0)
    return float(out) if t_arr.ndim == 0 else out


def duration_tail_index(params):
    """Tail exponent pi / (2 alpha) of the driftless inter-move duration.

    Equals 1 at rho = 0 (the duration has no mean), exceeds 1 for rho < 0,
    and drops below 1 for rho > 0.
    """
    _require_driftless(params, "the tail index formula")
    _, _, rho = _correlation(params.covariance())
    return math.pi / (2.0 * math.acos(-rho))


# ---------------------------------------------------------------------------
# Duration with drift: exponential tilt of the killed wedge kernel


@dataclass(frozen=True)
class DriftedDurationParams:
    """Coefficients of the drifted exit-time formula.

    (a1, a2, a_t) build the change-of-measure prefactor
    exp(a1 x + a2 y + a_t t) in the original coordinates; (d1, d2) is the
    drift vector seen by the standardized wedge Brownian motion. All five
    vanish together with the flow drift.
    """

    a1: float
    a2: float
    a_t: float
    d1: float
    d2: float


def drifted_duration_params(params):
    """Change-of-measure coefficients for `params`.

    a = -Sigma^{-1} mu and a_t = -mu' Sigma^{-1} mu / 2, so that
    exp(a . x0 + a_t t) equals the Girsanov factor exp(-d . w0 - |d|^2 t / 2)
    of the standardized motion; d is mu pushed through the same standardize-
    and-shear map as the state.
    """
    mu = np.asarray(params.drift(), dtype=float)
    cov = np.asarray(params.covariance(), dtype=float)
    sb, sa, rho = _correlation(cov)
    sig_inv = np.linalg.inv(cov)
    a = -sig_inv @ mu
    a_t = -0.5 * float(mu @ sig_inv @ mu)
    db, da = mu[0] / sb, mu[1] / sa
    d1 = (db - rho * da) / math.sqrt(1.0 - rho * rho)
    d2 = da
    return DriftedDurationParams(
        a1=float(a[0]), a2=float(a[1]), a_t=a_t, d1=d1, d2=d2
    )


@functools.lru_cache(maxsize=8)
def _leggauss(n):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _drifted_quadrature(t, geom, dd, n_theta, n_r, max_terms):
    """One drifted survival double integral, on one r-window for every theta."""
    alpha, theta0, r0 = geom.alpha, geom.theta0, geom.r0
    d = np.array([dd.d1, dd.d2])
    w0 = r0 * np.array([math.cos(theta0), math.sin(theta0)])
    log_pref = -float(d @ w0) - 0.5 * float(d @ d) * t

    nodes_t, weights_t = _leggauss(n_theta)
    theta = 0.5 * alpha * (nodes_t + 1.0)
    w_theta = 0.5 * alpha * weights_t
    proj = dd.d1 * np.cos(theta) + dd.d2 * np.sin(theta)

    # The r integrand is I_nu(r r0/t) times a Gaussian tilted by exp(r*proj);
    # completing the square puts its peak at r0 + t*proj, with width sqrt(t).
    # One r-window reaches 12 widths past the lowest and the highest peak.
    srt = math.sqrt(t)
    peak = r0 + t * proj
    lo = max(0.0, float(np.min(peak)) - 12.0 * srt)
    hi = max(float(np.max(peak)), 0.0) + 12.0 * srt
    nodes_r, weights_r = _leggauss(n_r)
    half = 0.5 * (hi - lo)
    R = lo + half * (nodes_r + 1.0)

    # exp(-(r-r0)^2/2t + r proj) carries the kernel's e^{-r0^2/2t} factor;
    # shift by the max exponent so the tilt cannot overflow.
    expo = -((R - r0) ** 2) / (2.0 * t) + R * proj[:, None]
    shift = float(np.max(expo))
    base = R * np.exp(expo - shift) * (half * weights_r)
    scale_log = log_pref + shift
    if scale_log < -745.0:
        return 0.0
    scale = math.exp(min(scale_log, 700.0))
    z = R * (r0 / t)

    total = 0.0
    quiet = 0
    for n in range(1, max_terms + 1):
        nu = n * math.pi / alpha
        inner = np.sin(nu * theta)
        radial = base @ special.ive(nu, z)
        contrib = math.sin(nu * theta0) * float(np.sum(w_theta * inner * radial))
        total += contrib
        if abs(contrib) < 1e-13 * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return (2.0 / (alpha * t)) * scale * total


def _drifted_survival_and_gap(
    t, x, y, params, n_theta=160, n_r=400, quad_tol=1e-4, max_terms=80
):
    """(values, gaps) of duration_survival_drifted, as arrays shaped like t.

    gaps holds |fine - coarse| at each t: the quadrature's own error estimate,
    which run reports carry as a health figure.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("t must be > 0")
    geom = cone_geometry(x, y, params)
    dd = drifted_duration_params(params)
    values = np.empty_like(t_arr)
    gaps = np.empty_like(t_arr)
    for i, ti in np.ndenumerate(t_arr):
        ti = float(ti)
        coarse = _drifted_quadrature(ti, geom, dd, n_theta // 2, n_r // 2, max_terms)
        value = _drifted_quadrature(ti, geom, dd, n_theta, n_r, max_terms)
        if not (math.isfinite(value) and math.isfinite(coarse)):
            raise ValueError(
                f"drifted survival at t={ti:g} is not finite "
                f"(coarse {coarse}, fine {value})"
            )
        gaps[i] = abs(value - coarse)
        if gaps[i] > quad_tol:
            warnings.warn(
                f"quadrature refinement at t={ti:g} still moves the value by "
                f"{gaps[i]:.2e} (> {quad_tol:.0e}); increase n_theta/n_r",
                RuntimeWarning,
            )
        if value < -1e-9 or value > 1.0 + 1e-9:
            warnings.warn(
                f"survival value {value:.6g} at t={ti:g} clamped into [0, 1]",
                RuntimeWarning,
            )
        values[i] = min(1.0, max(0.0, value))
    return values, gaps


def duration_survival_drifted(
    t, x, y, params, n_theta=160, n_r=400, quad_tol=1e-4, max_terms=80
):
    """P[the next price change happens after t] under drifted parameters.

    Integrates the killed wedge heat kernel against the exponential tilt of
    the drift: a Bessel series over wedge harmonics, each term a
    Gauss-Legendre double integral over (theta, r). The theta integrand
    carries the wedge eigenfunction sin(n pi theta / alpha); the r nodes lie
    on one window shared by every theta, so each term needs n_r Bessel
    values. The integral is run at half and at full resolution; if the two
    disagree by more than quad_tol a RuntimeWarning names the t and the
    achieved bound. Values are clamped to [0, 1], with a warning when the
    excursion exceeds numerical noise; a non-finite value raises ValueError.

    Reduces to :func:`duration_survival` (within quad_tol) when the drift
    vanishes. t may be a scalar (float result) or an array (array result);
    each t costs one coarse and one fine quadrature.
    """
    values, _ = _drifted_survival_and_gap(
        t, x, y, params, n_theta, n_r, quad_tol, max_terms
    )
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# Order-flow model maps


def agent_model_params(m, l, gamma, mean_duration, e_v2, vbar):
    """Limit drift, variance rate, and correlation of the three-agent mix.

    Agents are market-only (weight m), limit-only (l), and mixed traders
    (s = 1 - l - m) who submit a fraction gamma of their volume as limit
    orders on one side and 1 - gamma as market orders on the other. Returns
    (mu, v2, rho): per-second drift of each side's net flow, per-second
    variance rate, and the cross-correlation; the two sides share all three
    by the symmetry of the mix. All three derive from the mix's pair
    moments, which is what simulated flows reproduce.
    """
    if not (0 <= m <= 1 and 0 <= l <= 1 and m + l <= 1):
        raise ValueError("m, l must be nonnegative with m + l <= 1")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie strictly in (0, 1)")
    if mean_duration <= 0:
        raise ValueError("mean_duration must be > 0")
    if e_v2 <= 0:
        raise ValueError("e_v2 must be > 0")
    s = 1.0 - l - m
    u = s * gamma * (1.0 - gamma)
    mu = vbar * (2.0 * m + 2.0 * gamma * s - 1.0) / (2.0 * mean_duration)
    v2 = e_v2 * (1.0 - 2.0 * u) / (2.0 * mean_duration)
    rho = -2.0 * u / (1.0 - 2.0 * u)
    return mu, v2, rho


def flow_limit_params(spec):
    """(drift rate, covariance rate) of a flow's Gaussian limit.

    Supported specs: PoissonFlowSpec (independent compound-Poisson sides,
    uncentered second moment times the event rate) and AgentMixSpec
    (renewal-paired sides, with the inter-arrival variance correction when
    durations are not exponential). Anything else raises TypeError; hand the
    FCLT checker an explicit target instead.
    """
    if isinstance(spec, PoissonFlowSpec):
        unit = spec.unit_size
        rate = spec.lambda_limit + spec.mu_market + spec.theta_cancel
        drift = unit * (spec.lambda_limit - spec.mu_market - spec.theta_cancel)
        var = rate * unit * unit
        return np.array([drift, drift]), np.diag([var, var])
    if isinstance(spec, AgentMixSpec):
        market = -1.0 if spec.flip_market_signs else 1.0
        g = spec.gamma
        prob = np.array(
            [spec.m / 2, spec.m / 2, spec.l / 2, spec.l / 2, spec.s / 2, spec.s / 2]
        )
        coef = np.array(
            [
                [market, 0.0],
                [0.0, market],
                [-market, 0.0],
                [0.0, -market],
                [g, -(1.0 - g)],
                [-(1.0 - g), g],
            ]
        )
        ev = spec.size_dist.mean_value()
        ev2 = spec.size_dist.second_moment()
        mean_pair = ev * (prob @ coef)
        second = ev2 * (coef.T * prob) @ coef
        cov_pair = second - np.outer(mean_pair, mean_pair)
        et = spec.duration_dist.mean_value()
        var_t = spec.duration_dist.second_moment() - et * et
        drift = mean_pair / et
        sigma = cov_pair / et + np.outer(mean_pair, mean_pair) * (var_t / et**3)
        return drift, sigma
    raise TypeError(
        f"no analytic limit parameters for {type(spec).__name__}; "
        "pass an explicit target"
    )
