"""Tests for the planar diffusion engine.

The independent references here are classical: for uncorrelated unit
coordinates started at (x, y), the exit side follows (2/pi) arctan(x/y) and
joint survival factorizes into erf terms; the bridge-crossing time law is
checked against a fine-grid bridge simulation and the closed-form
inverse-Gaussian distribution.
"""

import hashlib
import math
import signal
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from lobdiff.analytics import prob_up
from lobdiff.book import ASK_DEPLETED, BID_DEPLETED, exponential_reinit
from lobdiff.diffusion import (
    SIDE_ASK,
    SIDE_BID,
    SIDE_CENSORED,
    DiffusionParams,
    NetFlowReport,
    ScaledParams,
    SmoothFunction,
    first_hits,
    generator_apply,
    net_flow_fclt_check,
    rescale_discrete,
    simulate_Q,
)
from lobdiff.flows import PoissonFlowSpec

SEED = 90210

UNIT = DiffusionParams(lambda_bid=1.0, lambda_ask=1.0, v2_bid=1.0, v2_ask=1.0, rho=0.0)


def p_exit_ask_rho0(x, y):
    """Driftless, uncorrelated, unit scales: P[ask axis first from (x, y)]."""
    return (2.0 / math.pi) * math.atan2(x, y)


def survival_rho0_11(t):
    """P[neither coordinate hit by t] from (1,1), driftless uncorrelated unit."""
    return math.erf(1.0 / math.sqrt(2.0 * t)) ** 2


# ---------------------------------------------------------------------------
# Parameter bundles


def test_diffusion_params_assembly():
    p = DiffusionParams(
        lambda_bid=2.0, lambda_ask=8.0, vbar_bid=0.5, vbar_ask=-0.25,
        v2_bid=3.0, v2_ask=0.75, rho=-0.5,
    )
    assert_allclose(p.drift(), [1.0, -2.0])
    cov = p.covariance()
    assert_allclose(cov[0, 0], 6.0)
    assert_allclose(cov[1, 1], 6.0)
    # rho * sqrt(lambda_a lambda_b) * v_a * v_b = -0.5 * 4 * (sqrt 3)(sqrt .75)
    assert_allclose(cov[0, 1], -0.5 * 4.0 * math.sqrt(3.0 * 0.75))
    assert_allclose(cov, cov.T)


def test_diffusion_params_validation():
    with pytest.raises(ValueError):
        DiffusionParams(lambda_bid=0.0, lambda_ask=1.0)
    with pytest.raises(ValueError):
        DiffusionParams(lambda_bid=1.0, lambda_ask=1.0, rho=1.0)


@pytest.mark.parametrize(
    "field", ["lambda_bid", "lambda_ask", "vbar_bid", "vbar_ask", "v2_bid", "v2_ask", "rho"]
)
def test_diffusion_params_reject_non_finite(field):
    # NaN passes every `<= 0` and range check; it must not reach first_hits
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DiffusionParams(**{"lambda_bid": 1.0, "lambda_ask": 1.0, field: bad})


def test_scaled_params_validation():
    ScaledParams(mu_bid=0.0, mu_ask=0.0, Lambda=np.eye(2), N=5.0)
    with pytest.raises(ValueError):
        ScaledParams(mu_bid=0.0, mu_ask=0.0, Lambda=np.eye(2), N=0.5)
    with pytest.raises(ValueError):
        ScaledParams(mu_bid=0.0, mu_ask=0.0, Lambda=-np.eye(2), N=2.0)


# ---------------------------------------------------------------------------
# Bridge-crossing law


def brute_force_bridge_crossings(a, b, var, dt, n_bridges, n_steps, rng):
    """First-crossing times of fine-grid Brownian bridges from a to b.

    Builds each bridge by sequential conditioning, applies the (exact)
    per-substep crossing probability, and records the first crossing substep.
    Returns crossing times (at substep resolution) for bridges that crossed.
    """
    w = np.full(n_bridges, float(a))
    alive = np.ones(n_bridges, dtype=bool)
    t_hit = np.full(n_bridges, np.nan)
    h = dt / n_steps
    for k in range(n_steps):
        remaining = dt - k * h
        mean = w + (b - w) * (h / remaining)
        sd = math.sqrt(var * h * max(remaining - h, 0.0) / remaining)
        nxt = mean + sd * rng.standard_normal(n_bridges)
        if k == n_steps - 1:
            nxt = np.full(n_bridges, float(b))
        p = np.where(
            (w <= 0) | (nxt <= 0),
            1.0,
            np.exp(-2.0 * np.clip(w, 0, None) * np.clip(nxt, 0, None) / (var * h)),
        )
        crossed = alive & (rng.random(n_bridges) < p)
        t_hit[crossed] = (k + 0.5) * h
        alive &= ~crossed
        w = nxt
    return t_hit[~np.isnan(t_hit)]


@pytest.mark.parametrize(
    "a,b,var,dt",
    [
        (0.5, 0.3, 1.0, 1.0),   # endpoint positive: conditioned crossing
        (0.8, -0.4, 2.0, 0.7),  # endpoint negative: certain crossing
    ],
)
def test_bridge_crossing_time_law(a, b, var, dt):
    rng = np.random.default_rng(SEED)
    times = brute_force_bridge_crossings(a, b, var, dt, 40_000, 512, rng)
    assert len(times) > 5_000
    # Closed form: w = s/(dt - s) is inverse-Gaussian with mean a/|b| and
    # shape a^2/(var dt).
    m = a / abs(b)
    lam = a * a / (var * dt)
    w = times / (dt - times)
    res = stats.kstest(w, stats.invgauss(mu=m / lam, scale=lam).cdf)
    assert res.statistic < 0.02

    if b > 0:
        frac = len(times) / 40_000
        p = math.exp(-2 * a * b / (var * dt))
        assert abs(frac - p) < 4 * math.sqrt(p * (1 - p) / 40_000)
    else:
        assert len(times) == 40_000


# ---------------------------------------------------------------------------
# First-passage Monte Carlo against exact uncorrelated values


def test_exit_side_symmetric_start():
    sides, _ = first_hits(UNIT, (1.0, 1.0), 200_000, seed=SEED)
    p = np.mean(sides == SIDE_ASK)
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / 200_000)
    assert np.all(sides != SIDE_CENSORED)


def test_exit_side_asymmetric_start_matches_arctan():
    # From (1, sqrt 3) the ask queue is the larger one: it empties first in
    # only (2/pi) arctan(1/sqrt 3) = 1/3 of paths.
    want = p_exit_ask_rho0(1.0, math.sqrt(3.0))
    assert want == pytest.approx(1.0 / 3.0)
    sides, _ = first_hits(UNIT, (1.0, math.sqrt(3.0)), 200_000, seed=SEED)
    p = np.mean(sides == SIDE_ASK)
    assert abs(p - want) < 3 * math.sqrt(want * (1 - want) / 200_000)


def test_exit_side_correlated_symmetric_is_half():
    params = DiffusionParams(1.0, 1.0, v2_bid=1.0, v2_ask=1.0, rho=-0.6)
    sides, _ = first_hits(params, (2.0, 2.0), 150_000, seed=SEED)
    p = np.mean(sides == SIDE_ASK)
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / 150_000)


def test_unequal_scales_standardize():
    # Variance 4 on the bid coordinate started at 2 is the standardized
    # start (1, 1): exit sides must split evenly.
    params = DiffusionParams(4.0, 1.0, v2_bid=1.0, v2_ask=1.0, rho=0.0)
    sides, _ = first_hits(params, (2.0, 1.0), 150_000, seed=SEED)
    p = np.mean(sides == SIDE_ASK)
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / 150_000)


def test_survival_and_censoring_match_erf_product():
    t_max = 0.5
    want = survival_rho0_11(t_max)
    sides, times = first_hits(UNIT, (1.0, 1.0), 200_000, seed=SEED, t_max=t_max)
    censored = sides == SIDE_CENSORED
    frac = censored.mean()
    assert abs(frac - want) < 3 * math.sqrt(want * (1 - want) / 200_000)
    assert np.all(times[censored] == t_max)
    assert np.all(times[~censored] < t_max)
    # The survival curve is reproduced on a grid, not just at the horizon.
    for t in (0.05, 0.1, 0.2, 0.35):
        s_hat = np.mean(times > t)
        s = survival_rho0_11(t)
        assert abs(s_hat - s) < 4 * math.sqrt(s * (1 - s) / 200_000), t


def test_strong_one_sided_drift_forces_side():
    params = DiffusionParams(
        1.0, 1.0, vbar_bid=0.0, vbar_ask=-8.0, v2_bid=1.0, v2_ask=1.0, rho=0.0
    )
    sides, _ = first_hits(params, (3.0, 3.0), 20_000, seed=SEED)
    assert np.mean(sides == SIDE_ASK) > 0.999


def test_fixed_and_adaptive_steps_agree():
    # Hit times are heavy-tailed (infinite mean), so fixed-step runs are
    # censored at a common horizon: the censoring bias is identical in law
    # across runs and cancels in the comparisons.
    n = 100_000
    t_max = 60.0
    kw = dict(t_max=t_max)
    sides_auto, _ = first_hits(UNIT, (1.0, 2.0), n, seed=SEED, step="auto", **kw)
    sides_fix, _ = first_hits(UNIT, (1.0, 2.0), n, seed=SEED + 1, step=0.02, **kw)
    sides_half, _ = first_hits(UNIT, (1.0, 2.0), n, seed=SEED + 2, step=0.01, **kw)
    p_auto = np.mean(sides_auto == SIDE_ASK)
    p_fix = np.mean(sides_fix == SIDE_ASK)
    p_half = np.mean(sides_half == SIDE_ASK)
    se = math.sqrt(0.25 / n)
    # Halving the fixed step moves the estimate by less than one pooled
    # standard error; adaptive agrees with both within three.
    assert abs(p_fix - p_half) < math.sqrt(2) * se
    assert abs(p_auto - p_fix) < 3 * math.sqrt(2) * se

    # The adaptive run alone, uncensored, against the exact exit law.
    sides_u, _ = first_hits(UNIT, (1.0, 2.0), n, seed=SEED)
    want = p_exit_ask_rho0(1.0, 2.0)
    assert abs(np.mean(sides_u == SIDE_ASK) - want) < 3.5 * se


def test_first_hit_single_path():
    (side,), (t,) = first_hits(UNIT, (1.0, 1.0), 1, seed=SEED)
    assert side in (SIDE_ASK, SIDE_BID)
    assert t > 0
    (side2,), (t2,) = first_hits(UNIT, (1.0, 1.0), 1, seed=SEED)
    assert (side, t) == (side2, t2)
    (side3,), (t3,) = first_hits(UNIT, (50.0, 50.0), 1, seed=SEED, t_max=0.25)
    assert side3 == SIDE_CENSORED and t3 == 0.25


def test_first_hits_deterministic_and_chunk_invariant():
    s1, t1 = first_hits(UNIT, (1.0, 1.5), 5000, seed=42)
    s2, t2 = first_hits(UNIT, (1.0, 1.5), 5000, seed=42)
    assert np.array_equal(s1, s2) and np.array_equal(t1, t2)
    # Chunk substreams are keyed by chunk index and paths inside a chunk share
    # vectorized draws, so a different chunk size yields a *different*
    # realization of the same law. Check the law, not the values.
    s3, t3 = first_hits(UNIT, (1.0, 1.5), 5000, seed=42, chunk=1024)
    p1 = np.mean(s1 == SIDE_ASK)
    p3 = np.mean(s3 == SIDE_ASK)
    se = np.sqrt(0.5 / 5000)  # two independent proportion estimates
    assert abs(p1 - p3) < 5 * se
    s4, t4 = first_hits(UNIT, (1.0, 1.5), 5000, seed=42, chunk=1024)
    assert np.array_equal(s3, s4) and np.array_equal(t3, t4)


# sha256 of sides.tobytes() + times.tobytes(), recorded with the engine that
# gathered and scattered live paths through an index array. The draw order
# and float expressions are a contract (see the diffusion module docstring):
# a change to either re-rolls every seeded Monte Carlo check and shows here.
PINNED_FIRST_HITS = {
    "auto-step": (
        dict(lambda_bid=1.0, lambda_ask=1.0, rho=-0.5), (1.0, 2.0), 3000, 101, {},
        "494324465532b349e9a9c5a1ec01546a8a90a4530a3c4256116ccb199f75530c",
    ),
    "censored": (
        dict(lambda_bid=1.0, lambda_ask=1.0), (1.0, 1.0), 3000, 102, {"t_max": 0.5},
        "ef7f4852d265e3980f1d20bbc56adc86581e673d411b9263ce79d5eec4e20f30",
    ),
    "fixed-step": (
        dict(lambda_bid=1.0, lambda_ask=1.0), (1.0, 1.5), 2000, 103,
        {"step": 0.01, "t_max": 1.0},
        "92de9677492243b33743805bf0750ffbc480e58818f2b417edb1a1ee6dc0b60c",
    ),
    "drift": (
        dict(lambda_bid=1.0, lambda_ask=1.0, vbar_bid=-0.2, vbar_ask=0.1), (1.0, 1.0), 3000, 104,
        {"t_max": 2.0},
        "4bf62cbf8deb0009b68174b65052d48656835043fec9c8bdcc8bb880968db4dc",
    ),
    "rho-unequal": (
        dict(lambda_bid=1.3, lambda_ask=0.7, v2_bid=2.0, v2_ask=0.5, rho=0.6), (0.8, 1.7), 3000, 105,
        {},
        "009989d470a5bf7b7c650bc2cd6a01c98209d635e64072b16d203f0f5bca98fa",
    ),
    "ragged-chunks": (
        dict(lambda_bid=1.0, lambda_ask=1.0, rho=-0.5), (1.0, 1.0), 2500, 106, {"chunk": 1024},
        "24a18a99b968ef3feee08f72410a802aa485b0b0c3df4eb934712cfab8778772",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_FIRST_HITS))
def test_first_hits_match_pinned_hashes(case):
    fields, initial, n_paths, seed, kwargs, want = PINNED_FIRST_HITS[case]
    sides, times = first_hits(DiffusionParams(**fields), initial, n_paths, seed, **kwargs)
    if "t_max" in kwargs:
        assert np.any(sides == SIDE_CENSORED)
    assert hashlib.sha256(sides.tobytes() + times.tobytes()).hexdigest() == want


def test_first_hits_rejects_bad_input():
    with pytest.raises(ValueError, match="inside the orthant"):
        first_hits(UNIT, (0.0, 1.0), 10, seed=1)
    with pytest.raises(ValueError):
        first_hits(UNIT, (1.0, 1.0), 0, seed=1)
    with pytest.raises(ValueError):
        first_hits(UNIT, (1.0, 1.0), 10, seed=1, step=-0.1)


def test_first_hits_rejects_drift_away_from_both_axes():
    # Paths may escape forever, so an unbounded run need not end; the alarm
    # turns a regression into a failure instead of a hung suite.
    away = DiffusionParams(1.0, 1.0, vbar_bid=0.5, vbar_ask=0.5)

    def hung(signum, frame):
        raise TimeoutError("no ValueError within 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="finite t_max"):
            first_hits(away, (1, 1), 100, 1)
        with pytest.raises(ValueError, match="finite t_max"):
            prob_up(1.0, 1.0, away)
        assert time.perf_counter() - t0 < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    sides, _ = first_hits(away, (1, 1), 100, 1, t_max=1.0)
    assert sides.size == 100


# ---------------------------------------------------------------------------
# Full-path simulation


def test_simulate_q_interior_increments_are_gaussian():
    params = DiffusionParams(
        lambda_bid=2.0, lambda_ask=3.0, vbar_bid=0.0, vbar_ask=0.0,
        v2_bid=1.5, v2_ask=1.0, rho=0.4,
    )
    rule = exponential_reinit(1.0, 1.0)
    path = simulate_Q(params, rule, (1e6, 1e6), horizon=1.0, step=1e-5, seed=SEED)
    assert len(path.jumps) == 0
    incr = np.diff(path.samples[:, 1:], axis=0)
    n = len(incr)
    assert n == 100_000
    cov = np.cov(incr.T) / 1e-5
    want = params.covariance()
    assert np.max(np.abs(cov - want)) / np.max(want) < 0.05
    # Normality of the standardized marginals.
    z = (incr[:, 0] - incr[:, 0].mean()) / incr[:, 0].std(ddof=1)
    assert stats.kstest(z, "norm").statistic < 1.358 / math.sqrt(n) * 2


def test_simulate_q_increment_scaling_linear():
    params = DiffusionParams(1.0, 1.0, v2_bid=2.0, v2_ask=1.0, rho=-0.3)
    rule = exponential_reinit(1.0, 1.0)
    path = simulate_Q(params, rule, (1e6, 1e6), horizon=10.0, step=1e-4, seed=SEED)
    x = path.samples[:, 1]
    base = params.covariance()[0, 0]
    for k in (1, 10, 100):
        d = np.diff(x[::k])
        v = d.var(ddof=1) / (k * 1e-4)
        # Sample-variance noise grows as k thins the series: 4.5 s.e. bound.
        tol = 4.5 * math.sqrt(2.0 / len(d))
        assert abs(v - base) / base < tol, (k, v, tol)
    # Disjoint consecutive increments are uncorrelated.
    d = np.diff(x)
    r = np.corrcoef(d[:-1], d[1:])[0, 1]
    assert abs(r) < 4 / math.sqrt(len(d))


def test_simulate_q_jumps_and_reinit():
    params = DiffusionParams(1.0, 1.0, v2_bid=1.0, v2_ask=1.0, rho=0.0)
    # Small reinit means keep renewal cycles short: ~100 depletions expected.
    rule = exponential_reinit(0.5, 0.6)
    path = simulate_Q(params, rule, (0.3, 0.3), horizon=50.0, step=0.01, seed=SEED)
    assert len(path.jumps) > 20
    assert np.all(path.samples[:, 1:] > 0)
    for j in path.jumps:
        assert j.side in (ASK_DEPLETED, BID_DEPLETED)
        assert j.post_state[0] > 0 and j.post_state[1] > 0
    # Jump times are strictly within the horizon and ordered.
    taus = [j.tau for j in path.jumps]
    assert all(t2 > t1 for t1, t2 in zip(taus, taus[1:]))
    assert taus[-1] <= 50.0


def test_simulate_q_rejects_bad_input():
    rule = exponential_reinit(1.0, 1.0)
    with pytest.raises(ValueError):
        simulate_Q(UNIT, rule, (1.0, -1.0), horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        simulate_Q(UNIT, rule, (1.0, 1.0), horizon=0.0, seed=1)
    degenerate = ScaledParams.__new__(ScaledParams)  # bypass validation
    object.__setattr__(degenerate, "mu_bid", 0.0)
    object.__setattr__(degenerate, "mu_ask", 0.0)
    object.__setattr__(degenerate, "Lambda", np.array([[1.0, 1.0], [1.0, 1.0]]))
    object.__setattr__(degenerate, "N", 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        simulate_Q(degenerate, rule, (1.0, 1.0), horizon=1.0, seed=1)


# ---------------------------------------------------------------------------
# Rescaling


def test_rescale_identity_and_scaling():
    params = DiffusionParams(1.0, 1.0)
    rule = exponential_reinit(1.0, 1.0)
    path = simulate_Q(params, rule, (0.5, 0.5), horizon=5.0, step=0.01, seed=SEED)
    assert rescale_discrete(path, 1) is path
    scaled = rescale_discrete(path, 100)
    assert_allclose(scaled.times, path.times / 100.0)
    assert_allclose(scaled.q_bid, path.q_bid / 10.0)
    assert len(scaled.jumps) == len(path.jumps)
    assert scaled.jumps[0].tau == path.jumps[0].tau / 100.0
    assert_allclose(scaled.jumps[0].post_state, np.array(path.jumps[0].post_state) / 10.0)
    with pytest.raises(ValueError):
        rescale_discrete(path, 0)
    with pytest.raises(ValueError):
        rescale_discrete(path, 2.5)


def test_rescale_constant_path():
    samples = np.array([[0.0, 3.0, 3.0], [100.0, 3.0, 3.0]])
    from lobdiff.book import RegulatedPath

    path = RegulatedPath(samples=samples)
    scaled = rescale_discrete(path, 100)
    assert_allclose(scaled.samples, [[0.0, 0.3, 0.3], [1.0, 0.3, 0.3]])


# ---------------------------------------------------------------------------
# Generator


H_CONST = SmoothFunction(
    f=lambda x, y: 7.0,
    fx=lambda x, y: 0.0, fy=lambda x, y: 0.0,
    fxx=lambda x, y: 0.0, fyy=lambda x, y: 0.0, fxy=lambda x, y: 0.0,
)
H_X = SmoothFunction(
    f=lambda x, y: x,
    fx=lambda x, y: 1.0, fy=lambda x, y: 0.0,
    fxx=lambda x, y: 0.0, fyy=lambda x, y: 0.0, fxy=lambda x, y: 0.0,
)
H_XY = SmoothFunction(
    f=lambda x, y: x * y,
    fx=lambda x, y: y, fy=lambda x, y: x,
    fxx=lambda x, y: 0.0, fyy=lambda x, y: 0.0, fxy=lambda x, y: 1.0,
)


def test_generator_trivial_cases():
    params = DiffusionParams(
        lambda_bid=2.0, lambda_ask=3.0, vbar_bid=0.5, vbar_ask=-1.0,
        v2_bid=1.0, v2_ask=2.0, rho=0.25,
    )
    assert generator_apply(H_CONST, 1.0, 1.0, params) == 0.0
    # h = x picks out the bid drift lambda_b vbar_b.
    assert generator_apply(H_X, 2.0, 3.0, params) == pytest.approx(1.0)
    driftless = DiffusionParams(2.0, 3.0, v2_bid=1.0, v2_ask=2.0, rho=0.25)
    assert generator_apply(H_X, 2.0, 3.0, driftless) == 0.0
    # h = xy picks out drift terms plus one cross-covariance term.
    want = (
        params.drift()[0] * 3.0
        + params.drift()[1] * 2.0
        + params.covariance()[0, 1]
    )
    assert generator_apply(H_XY, 2.0, 3.0, params) == pytest.approx(want)


def test_generator_rejects_boundary():
    with pytest.raises(ValueError, match="interior"):
        generator_apply(H_X, 0.0, 1.0, UNIT)


# ---------------------------------------------------------------------------
# Net-flow FCLT check (explicit target; the analytic-target path is covered
# with the parameter-map tests)


def test_net_flow_poisson_balanced():
    spec = PoissonFlowSpec(lambda_limit=0.1, mu_market=0.05, theta_cancel=0.05)
    rate = spec.total_rate  # 0.2 per side
    sigma = np.diag([rate, rate])  # unit sizes, balanced signs
    reports = net_flow_fclt_check(
        spec, n_ladder=(100, 2500), seed=SEED, reps=300, target=((0.0, 0.0), sigma)
    )
    assert [r.n for r in reports] == [100, 2500]
    small, large = reports
    assert isinstance(small, NetFlowReport)
    # The Gaussian approximation tightens along the ladder.
    assert large.ks_bid < small.ks_bid
    assert large.ks_ask < small.ks_ask
    assert large.ks_bid < large.ks_critical
    assert large.ks_ask < large.ks_critical
    assert large.cov_rel_error < 0.10
    # Independent sides: off-diagonal covariance is noise around zero.
    off = large.sample_cov[0, 1]
    assert abs(off) < 0.1 * max(large.sample_cov[0, 0], large.sample_cov[1, 1])
