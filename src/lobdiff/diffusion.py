"""Planar diffusion limit of the queue process, in and at the edge of the orthant.

In the heavy-traffic regime the pair of best-quote queues behaves, between
price moves, like a correlated planar Brownian motion with drift

    mu = (lambda_b Vbar_b, lambda_a Vbar_a)

and covariance

    Sigma = [[lambda_b v_b^2,                      rho sqrt(lambda_a lambda_b) v_a v_b],
             [rho sqrt(lambda_a lambda_b) v_a v_b, lambda_a v_a^2              ]],

with the first coordinate the bid queue throughout. Hitting an axis is a
price move: the state jumps to a fresh interior point drawn from the same
`ReinitRule` machinery the discrete book uses, and the motion continues.

What lives here
---------------
- `DiffusionParams` / `ScaledParams`: the parameter bundles, with `drift()`
  and `covariance()` accessors shared by everything downstream.
- `simulate_Q`: one full path with jump reinitialization at the axes.
- `first_hit` / `first_hits`: which axis is hit first and when — the single
  path and the vectorized Monte Carlo versions.
- `rescale_discrete`: the q -> Q^n = q_{nt}/sqrt(n) reindexing.
- `generator_apply`: the second-order generator evaluated on a test function.
- `net_flow_fclt_check`: empirical verification that rescaled net order flow
  approaches the Gaussian limit that defines Sigma.

Axis-hit detection
------------------
Discrete stepping alone misses excursions that cross an axis and come back
inside one step. Every step here is corrected with the exact Brownian-bridge
crossing law per coordinate: given endpoints a, b > 0 over a step of length
dt and marginal variance rate s2, the coordinate crossed zero in between with
probability exp(-2 a b / (s2 dt)); endpoints at or below zero crossed surely.
Conditionally on crossing, the crossing time is dt * w / (1 + w) with
w ~ InverseGaussian(mean a/|b|, shape a^2/(s2 dt)), which `numpy` samples
exactly (`Generator.wald`). Both laws are exact for any step size; the one
remaining approximation is that the two coordinates' crossing indicators are
sampled independently within a step (their slight dependence through rho is a
second-order effect that vanishes with the step and is covered by the
step-halving invariance tests).

Monte Carlo determinism
-----------------------
`first_hits` runs in fixed-size chunks, each on its own substream keyed by
(seed, chunk index); results are concatenated in chunk order, so output is
identical for a given (seed, n_paths) no matter how the work is scheduled.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ._rng import child_seed, substream
from .book import (
    ASK_DEPLETED,
    BID_DEPLETED,
    Jump,
    RegulatedPath,
)
from .flows import gen_flow

__all__ = [
    "DiffusionParams",
    "ScaledParams",
    "SmoothFunction",
    "simulate_Q",
    "first_hit",
    "first_hits",
    "rescale_discrete",
    "generator_apply",
    "net_flow_fclt_check",
    "NetFlowReport",
]

#: Side codes used by the vectorized Monte Carlo: columns of the state array.
SIDE_BID = 0
SIDE_ASK = 1
SIDE_CENSORED = -1

_CHUNK = 8192


@dataclass(frozen=True)
class DiffusionParams:
    """Rates, size moments, and cross-correlation of the two order flows.

    v2_* are the per-order size variances; rho is the cross-correlation of
    the flows' Gaussian limits. drift() and covariance() assemble the limit
    parameters under the bid-first coordinate convention.
    """

    lambda_bid: float
    lambda_ask: float
    vbar_bid: float = 0.0
    vbar_ask: float = 0.0
    v2_bid: float = 1.0
    v2_ask: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        for name in ("lambda_bid", "lambda_ask", "v2_bid", "v2_ask"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not -1 < self.rho < 1:
            raise ValueError("rho must lie in (-1, 1)")

    def drift(self):
        return np.array(
            [self.lambda_bid * self.vbar_bid, self.lambda_ask * self.vbar_ask]
        )

    def covariance(self):
        sb = self.lambda_bid * self.v2_bid
        sa = self.lambda_ask * self.v2_ask
        cross = (
            self.rho
            * math.sqrt(self.lambda_ask * self.lambda_bid)
            * math.sqrt(self.v2_ask)
            * math.sqrt(self.v2_bid)
        )
        return np.array([[sb, cross], [cross, sa]])


@dataclass(frozen=True)
class ScaledParams:
    """Drift and covariance re-expressed per coarse observation period.

    N is the (dimensionless) ratio of the observation period to the mean
    inter-event time; mu_* carry the sqrt(N) drift amplification and Lambda
    the N-fold covariance of the period-aggregated process.
    """

    mu_bid: float
    mu_ask: float
    Lambda: np.ndarray
    N: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        lam = np.asarray(self.Lambda, dtype=float)
        if lam.shape != (2, 2) or not np.allclose(lam, lam.T):
            raise ValueError("Lambda must be symmetric 2x2")
        if np.any(np.linalg.eigvalsh(lam) <= 0):
            raise ValueError("Lambda must be positive definite")

    def drift(self):
        return np.array([self.mu_bid, self.mu_ask])

    def covariance(self):
        return np.asarray(self.Lambda, dtype=float)


def _unpack(params):
    """(drift, covariance, cholesky) from any params object with accessors."""
    mu = np.asarray(params.drift(), dtype=float)
    cov = np.asarray(params.covariance(), dtype=float)
    if np.any(np.linalg.eigvalsh(cov) <= 0):
        raise ValueError("degenerate covariance")
    return mu, cov, np.linalg.cholesky(cov)


def _check_interior(initial):
    x0 = np.asarray(initial, dtype=float)
    if x0.shape != (2,) or not np.all(x0 > 0):
        raise ValueError(f"initial state must be strictly inside the orthant, got {initial}")
    return x0


# ---------------------------------------------------------------------------
# Full-path simulation


def simulate_Q(params, rule, initial, horizon, step=None, seed=0):
    """One path of the jump-reinitialized diffusion over [0, horizon].

    Between axis hits the path is exact: increments over each step are
    bivariate Gaussian with mean drift*dt and covariance Sigma*dt. Hits are
    detected with the bridge correction described in the module docstring;
    at a hit the state is redrawn via `rule` (sampler_up after an ask-axis
    hit, sampler_down after a bid-axis hit) and the path continues from the
    hit time, so sample times are uniform except right after jumps.

    step defaults to horizon / 2**16. For state-dependent rules the pre-jump
    state handed to the rule linearly interpolates the step's endpoints at
    the hit time (its conditional mean up to the crossing correlation).
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    if step is None:
        step = horizon / 2.0**16
    if step <= 0:
        raise ValueError("step must be > 0")
    mu, cov, chol = _unpack(params)
    x = _check_interior(initial)
    var_b, var_a = cov[0, 0], cov[1, 1]
    rng = substream(seed, "simulate-q")

    times = [0.0]
    samples = [x.copy()]
    jumps = []
    # Count *down* so the loop terminates exactly: the last step consumes all
    # of `remaining`, and float drift from summing many steps is folded into
    # the final step's size (within 0.1%) instead of spawning a residual step.
    remaining = horizon
    while remaining > 0.0:
        dt = remaining if remaining <= step * 1.001 else step
        z = rng.standard_normal(2)
        y = x + mu * dt + chol @ z * math.sqrt(dt)
        u = rng.random(2)
        p_b = 1.0 if y[0] <= 0 else math.exp(max(-745.0, -2.0 * x[0] * y[0] / (var_b * dt)))
        p_a = 1.0 if y[1] <= 0 else math.exp(max(-745.0, -2.0 * x[1] * y[1] / (var_a * dt)))
        cross_b = u[0] < p_b
        cross_a = u[1] < p_a
        if not (cross_b or cross_a):
            remaining -= dt
            x = y
            times.append(horizon - remaining)
            samples.append(x.copy())
            continue
        s_b = _bridge_hit_time(x[0], y[0], var_b, dt, rng) if cross_b else math.inf
        s_a = _bridge_hit_time(x[1], y[1], var_a, dt, rng) if cross_a else math.inf
        side = ASK_DEPLETED if s_a <= s_b else BID_DEPLETED
        s = min(s_a, s_b)
        frac = s / dt
        pre = x + frac * (y - x)
        pre[SIDE_ASK if side == ASK_DEPLETED else SIDE_BID] = 0.0
        new_b, new_a = rule.draw(side, pre[0], pre[1], rng)
        remaining -= s
        x = np.array([new_b, new_a])
        jumps.append(Jump(horizon - remaining, side, (new_b, new_a)))
        times.append(horizon - remaining)
        samples.append(x.copy())
    rows = np.column_stack([np.array(times), np.array(samples)])
    return RegulatedPath(samples=rows, jumps=tuple(jumps))


def _bridge_hit_time(a, b, var, dt, rng):
    """Exact first-crossing time of a Brownian bridge from a > 0 to b over dt."""
    babs = max(abs(b), 1e-12 * max(a, 1.0))
    w = rng.wald(a / babs, a * a / (var * dt))
    return dt * w / (1.0 + w)


# ---------------------------------------------------------------------------
# First-passage Monte Carlo


def first_hit(params, initial, seed, step="auto", t_max=math.inf):
    """Side and time of the first axis hit of a single path.

    Returns (side, time) with side "ask_depleted" (price up: the ask queue
    emptied first) or "bid_depleted". step "auto" adapts each step to the
    current standardized distance from the axes; a numeric step is fixed.
    A path still interior at t_max returns (None, t_max).
    """
    sides, times = first_hits(params, initial, 1, seed, step=step, t_max=t_max)
    if sides[0] == SIDE_CENSORED:
        return None, float(times[0])
    side = ASK_DEPLETED if sides[0] == SIDE_ASK else BID_DEPLETED
    return side, float(times[0])


def first_hits(
    params,
    initial,
    n_paths,
    seed,
    step="auto",
    t_max=math.inf,
    beta=0.45,
    chunk=_CHUNK,
):
    """Vectorized first-passage Monte Carlo from a common interior start.

    Returns (sides, times): sides is int8 with 0 = bid axis, 1 = ask axis,
    -1 = censored at t_max; times holds the hit (or censoring) times.

    step "auto" uses dt = (beta * d)^2 per path, where d is the smaller of
    the two standardized axis distances x_i / sqrt(Sigma_ii), additionally
    limited so drift moves the path by at most a beta fraction of d per
    step; a numeric step fixes dt. Censoring at finite t_max truncates each
    path's last step exactly at the horizon. Results are deterministic in
    (seed, n_paths, chunk): the substream is keyed per chunk, so changing
    the chunk size regroups the draws.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be > 0")
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    mu, cov, chol = _unpack(params)
    x0 = _check_interior(initial)
    fixed_dt = None
    if step != "auto":
        fixed_dt = float(step)
        if fixed_dt <= 0:
            raise ValueError("step must be > 0")

    sides = np.empty(n_paths, dtype=np.int8)
    times = np.empty(n_paths, dtype=float)
    done = 0
    c = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        rng = substream(seed, "first-hits", c)
        s_chunk, t_chunk = _first_hit_chunk(
            mu, cov, chol, x0, m, rng, fixed_dt, beta, t_max
        )
        sides[done : done + m] = s_chunk
        times[done : done + m] = t_chunk
        done += m
        c += 1
    return sides, times


def _first_hit_chunk(mu, cov, chol, x0, m, rng, fixed_dt, beta, t_max):
    sd = np.sqrt(np.diag(cov))
    var_b, var_a = cov[0, 0], cov[1, 1]
    drift_scale = np.abs(mu) / sd  # per-coordinate drift in stds per unit time

    x = np.tile(x0, (m, 1))
    t = np.zeros(m)
    out_side = np.full(m, SIDE_CENSORED, dtype=np.int8)
    out_time = np.full(m, t_max, dtype=float)
    idx = np.arange(m)

    while idx.size:
        n = idx.size
        if fixed_dt is None:
            d = np.minimum(x[idx, 0] / sd[0], x[idx, 1] / sd[1])
            dt = (beta * d) ** 2
            ds = float(np.max(drift_scale))
            if ds > 0:
                # Keep the drift displacement under beta * d as well.
                dt = np.minimum(dt, beta * d / ds)
        else:
            dt = np.full(n, fixed_dt)
        if math.isfinite(t_max):
            dt = np.minimum(dt, t_max - t[idx])
        z = rng.standard_normal((n, 2))
        sq = np.sqrt(dt)[:, None]
        y = x[idx] + mu * dt[:, None] + (z @ chol.T) * sq
        u = rng.random((n, 2))

        with np.errstate(over="ignore"):
            p_b = np.exp(-2.0 * x[idx, 0] * y[:, 0] / (var_b * dt))
            p_a = np.exp(-2.0 * x[idx, 1] * y[:, 1] / (var_a * dt))
        cross_b = (y[:, 0] <= 0) | (u[:, 0] < p_b)
        cross_a = (y[:, 1] <= 0) | (u[:, 1] < p_a)

        s_b = np.full(n, np.inf)
        s_a = np.full(n, np.inf)
        kb = np.flatnonzero(cross_b)
        if kb.size:
            a = x[idx[kb], 0]
            babs = np.maximum(np.abs(y[kb, 0]), 1e-12 * np.maximum(a, 1.0))
            w = rng.wald(a / babs, a * a / (var_b * dt[kb]))
            s_b[kb] = dt[kb] * w / (1.0 + w)
        ka = np.flatnonzero(cross_a)
        if ka.size:
            a = x[idx[ka], 1]
            babs = np.maximum(np.abs(y[ka, 1]), 1e-12 * np.maximum(a, 1.0))
            w = rng.wald(a / babs, a * a / (var_a * dt[ka]))
            s_a[ka] = dt[ka] * w / (1.0 + w)

        hit = cross_b | cross_a
        kh = np.flatnonzero(hit)
        if kh.size:
            paths = idx[kh]
            ask_first = s_a[kh] <= s_b[kh]  # exact ties go to the ask side
            out_side[paths] = np.where(ask_first, SIDE_ASK, SIDE_BID).astype(np.int8)
            out_time[paths] = t[paths] + np.minimum(s_a[kh], s_b[kh])

        survive = ~hit
        t[idx[survive]] += dt[survive]
        x[idx[survive]] = y[survive]
        alive = survive
        if math.isfinite(t_max):
            alive = survive & (t[idx] < t_max * (1.0 - 1e-15))
        idx = idx[alive]
    return out_side, out_time


# ---------------------------------------------------------------------------
# Rescaling and the generator


def rescale_discrete(path, n):
    """Heavy-traffic reindexing: times divided by n, sizes by sqrt(n).

    Accepts and returns a RegulatedPath; n = 1 is the identity.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be an integer >= 1")
    n = int(n)
    if n == 1:
        return path
    root = math.sqrt(n)
    samples = path.samples.copy()
    samples[:, 0] /= n
    samples[:, 1:] /= root
    jumps = tuple(
        Jump(j.tau / n, j.side, (j.post_state[0] / root, j.post_state[1] / root))
        for j in path.jumps
    )
    return RegulatedPath(samples=samples, jumps=jumps)


@dataclass(frozen=True)
class SmoothFunction:
    """A twice-differentiable test function bundled with its partials.

    Fields are callables of (x, y): the value, first partials fx, fy, and
    second partials fxx, fyy, fxy.
    """

    f: object
    fx: object
    fy: object
    fxx: object
    fyy: object
    fxy: object


def generator_apply(h, x, y, params):
    """The diffusion generator applied to test function h at interior (x, y).

        G h = mu_b h_x + mu_a h_y
              + (1/2) Sigma_bb h_xx + (1/2) Sigma_aa h_yy + Sigma_ba h_xy

    with (x, y) = (bid, ask). Boundary points are rejected: on the axes the
    process jumps rather than diffuses, and that behavior is checked by
    Monte Carlo, not by this evaluator.
    """
    if x <= 0 or y <= 0:
        raise ValueError("generator evaluation requires an interior point")
    mu, cov, _ = _unpack(params)
    return (
        mu[0] * h.fx(x, y)
        + mu[1] * h.fy(x, y)
        + 0.5 * cov[0, 0] * h.fxx(x, y)
        + 0.5 * cov[1, 1] * h.fyy(x, y)
        + cov[0, 1] * h.fxy(x, y)
    )


# ---------------------------------------------------------------------------
# Net-flow FCLT verification


@dataclass(frozen=True)
class NetFlowReport:
    """Per-n verification row for the rescaled net-flow Gaussian limit."""

    n: int
    reps: int
    ks_bid: float
    ks_ask: float
    ks_critical: float
    cov_rel_error: float
    sample_cov: np.ndarray
    target_cov: np.ndarray


def net_flow_fclt_check(
    flow_spec, n_ladder, horizon=1.0, seed=0, reps=400, target=None
):
    """Empirical functional-CLT check for the rescaled net order flow.

    For each n in the ladder runs `reps` independent replications of the flow
    over physical time n*horizon, forms X^n = (net bid flow, net ask flow) /
    sqrt(n) at time horizon, and reports (i) the Kolmogorov-Smirnov distance
    of each centered marginal against its limit Gaussian, with the 5%
    critical value for `reps` samples, and (ii) the relative error of the
    sample covariance of per-(horizon/16) increments against the target
    covariance.

    Marginals are centered at the exact finite-n mean sqrt(n) * t * (rate x
    mean size) per side, which converges to the limit drift scaling. `target`
    overrides the analytic (drift rate, covariance) pair derived from the
    spec; it must be given for flow specs the deriver does not know.
    """
    if target is None:
        from .analytics import flow_limit_params  # late import: analytics sits above

        drift_rate, sigma = flow_limit_params(flow_spec)
    else:
        drift_rate, sigma = target
    drift_rate = np.asarray(drift_rate, dtype=float)
    sigma = np.asarray(sigma, dtype=float)

    k_incr = 16
    reports = []
    for n in n_ladder:
        n = int(n)
        finals = np.empty((reps, 2))
        incrs = np.empty((reps * k_incr, 2))
        for r in range(reps):
            times, sides, deltas = gen_flow(
                flow_spec, n * horizon, child_seed(seed, "fclt", n, r)
            )
            grid = np.linspace(0.0, n * horizon, k_incr + 1)
            pos = np.searchsorted(times, grid, side="right")
            cum_b = np.concatenate([[0.0], np.cumsum(np.where(sides == 0, deltas, 0.0))])
            cum_a = np.concatenate([[0.0], np.cumsum(np.where(sides == 1, deltas, 0.0))])
            root = math.sqrt(n)
            xb = cum_b[pos] / root
            xa = cum_a[pos] / root
            finals[r] = (xb[-1], xa[-1])
            incrs[r * k_incr : (r + 1) * k_incr, 0] = np.diff(xb)
            incrs[r * k_incr : (r + 1) * k_incr, 1] = np.diff(xa)

        mean_n = math.sqrt(n) * horizon * drift_rate
        ks = []
        for col in (0, 1):
            sdev = math.sqrt(sigma[col, col] * horizon)
            stat = stats.kstest(finals[:, col], "norm", args=(mean_n[col], sdev)).statistic
            ks.append(float(stat))
        centered = incrs - incrs.mean(axis=0)
        sample_cov = centered.T @ centered / (len(incrs) - 1)
        target_cov = sigma * (horizon / k_incr)
        rel = np.abs(sample_cov - target_cov) / max(
            np.max(np.abs(target_cov)), 1e-300
        )
        reports.append(
            NetFlowReport(
                n=n,
                reps=reps,
                ks_bid=ks[0],
                ks_ask=ks[1],
                ks_critical=1.358 / math.sqrt(reps),
                cov_rel_error=float(np.max(rel)),
                sample_cov=sample_cov,
                target_cov=target_cov,
            )
        )
    return reports
