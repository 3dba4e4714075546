"""Tests for the flow-parameter estimators.

Independent targets: renewal theory gives the rate estimator's law exactly;
the AR(1) long-run variance is sigma^2/(1-phi)^2; ARCH(1) sizes are
serially uncorrelated with marginal variance alpha0/(1-alpha1); the agent
mix's flow correlation has the closed form checked in the analytics tests.
Consistency is probed by quadrupling the sample and watching the error
halve.
"""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lobdiff.book import ASK, BID, OrderEvent
from lobdiff.diffusion import DiffusionParams
from lobdiff.estimation import (
    FlowSample,
    ParamEstimate,
    estimate_rates,
    estimate_report,
    estimate_rho,
    estimate_size_moments,
    hill_estimator,
    scaled_params,
    variance_ratio_table,
)
from lobdiff.flows import (
    AgentMixSpec,
    ArchVolumeSpec,
    Dist,
    PoissonFlowSpec,
    gen_agent_flow,
    gen_poisson_flow,
)

SEED = 31415


def two_sided(sz_b, sz_a, tb=None, ta=None):
    """Columnar FlowSample from per-side size/time arrays."""
    tb = np.arange(len(sz_b), dtype=float) if tb is None else tb
    ta = np.arange(len(sz_a), dtype=float) if ta is None else ta
    t = np.concatenate([tb, ta])
    sides = np.concatenate([np.zeros(len(tb), int), np.ones(len(ta), int)])
    d = np.concatenate([sz_b, sz_a])
    order = np.argsort(t, kind="stable")
    return FlowSample.from_arrays(t[order], sides[order], d[order])


def poisson_sides(rng, rate_b, rate_a, horizon, mean_b=0.0, mean_a=0.0):
    tb = np.cumsum(rng.exponential(1.0 / rate_b, int(rate_b * horizon * 1.2)))
    ta = np.cumsum(rng.exponential(1.0 / rate_a, int(rate_a * horizon * 1.2)))
    tb, ta = tb[tb <= horizon], ta[ta <= horizon]
    return two_sided(
        rng.standard_normal(len(tb)) + mean_b,
        rng.standard_normal(len(ta)) + mean_a,
        tb,
        ta,
    )


# ---------------------------------------------------------------------------
# Construction


def test_flow_sample_from_events_splits_sides():
    events = [
        OrderEvent(0.0, BID, 1.0),
        OrderEvent(0.5, ASK, -2.0),
        OrderEvent(1.0, BID, 3.0),
    ]
    s = FlowSample.from_events(events)
    assert_allclose(s.bid_times, [0.0, 1.0])
    assert_allclose(s.bid_sizes, [1.0, 3.0])
    assert_allclose(s.ask_sizes, [-2.0])
    times, sizes = s.side(ASK)
    assert_allclose(times, [0.5])


def test_flow_sample_rejects_unsorted():
    bad = [OrderEvent(1.0, BID, 1.0), OrderEvent(0.5, BID, 1.0)]
    with pytest.raises(ValueError, match="sorted"):
        FlowSample(bad, [])
    with pytest.raises(ValueError, match="sorted"):
        FlowSample.from_arrays([1.0, 0.5], [1, 1], [1.0, 1.0])


def test_param_estimate_validation_and_ci():
    e = ParamEstimate(1.0, 0.25, 100)
    lo, hi = e.ci95()
    assert lo == pytest.approx(0.51)
    assert hi == pytest.approx(1.49)
    with pytest.raises(ValueError):
        ParamEstimate(1.0, -0.1, 10)


# ---------------------------------------------------------------------------
# Rates


def test_rate_constant_durations():
    # eleven events half a second apart: exactly 2 per second, zero spread
    ev = [OrderEvent(0.5 * i, BID, 1.0) for i in range(11)]
    lb, la = estimate_rates(FlowSample(ev, ev))
    assert lb.value == pytest.approx(2.0)
    assert lb.std_error == pytest.approx(0.0)
    assert lb.n_used == 10


def test_rate_exponential_durations_recovered():
    rng = np.random.default_rng(SEED)
    t = np.cumsum(rng.exponential(1.0 / 4.0, 1_000_000))
    s = two_sided(np.ones(len(t)), np.ones(len(t)), t, t + 1e-9)
    lb, la = estimate_rates(s)
    assert abs(lb.value - 4.0) < 3 * lb.std_error
    assert abs(la.value - 4.0) < 3 * la.std_error


def test_rate_requires_two_events():
    single = [OrderEvent(1.0, BID, 1.0)]
    with pytest.raises(ValueError, match="at least 2"):
        estimate_rates(FlowSample(single, single))


def test_rate_rejects_zero_span():
    ev = [OrderEvent(1.0, BID, 1.0), OrderEvent(1.0, BID, 1.0)]
    with pytest.raises(ValueError, match="span"):
        estimate_rates(FlowSample(ev, ev))


# ---------------------------------------------------------------------------
# Size moments


def test_size_moments_iid_signs():
    rng = np.random.default_rng(SEED)
    s = two_sided(rng.choice([-1.0, 1.0], 200_000), rng.choice([-1.0, 1.0], 200_000))
    (mb, vb), (ma, va) = estimate_size_moments(s)
    assert abs(mb.value) < 3 * mb.std_error
    assert vb.value == pytest.approx(1.0, rel=0.01)
    assert va.value == pytest.approx(1.0, rel=0.01)


def test_size_moments_ar1_long_run_variance():
    # phi = 0.5 with unit innovations: marginal variance 4/3 but long-run
    # variance sigma^2/(1-phi)^2 = 4; the autocovariance correction must
    # bridge the factor of three
    rng = np.random.default_rng(SEED)
    n, phi = 400_000, 0.5
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1 - phi**2)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    s = two_sided(x, rng.standard_normal(n))
    (_, vb), (_, va) = estimate_size_moments(s)
    assert vb.value == pytest.approx(4.0, rel=0.10)
    assert va.value == pytest.approx(1.0, rel=0.10)


def test_size_moments_arch_volatility_clustering():
    # ARCH(1) sizes are serially uncorrelated, so the long-run variance is
    # just the stationary one, alpha0/(1 - alpha1); clustering in the
    # squares must not leak into the estimate
    spec = ArchVolumeSpec(alpha0_bid=0.5, alpha1_bid=0.4, alpha0_ask=1.0, alpha1_ask=0.2)
    from lobdiff.flows import gen_arch_volumes

    pairs = gen_arch_volumes(spec, 1_000_000, seed=SEED)
    s = two_sided(pairs[:, 0], pairs[:, 1])
    (_, vb), (_, va) = estimate_size_moments(s)
    assert vb.value == pytest.approx(0.5 / 0.6, rel=0.10)
    assert va.value == pytest.approx(1.0 / 0.8, rel=0.10)


def test_size_moments_requires_enough_events():
    s = two_sided(np.ones(30), np.ones(30))
    with pytest.raises(ValueError, match="at least"):
        estimate_size_moments(s, lag_cut=10)


# ---------------------------------------------------------------------------
# Cross-flow correlation


def test_rho_independent_streams_is_zero():
    rng = np.random.default_rng(SEED)
    s = poisson_sides(rng, 1.0, 1.25, 200_000.0, mean_b=0.5, mean_a=-0.7)
    r = estimate_rho(s)
    assert abs(r.value) < 3 * r.std_error


def test_rho_centered_over_many_seeds():
    # bias check: across 100 independent sessions the mean estimate must
    # sit within two standard errors of zero
    values = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = poisson_sides(rng, 1.0, 1.0, 4000.0, mean_b=0.3, mean_a=0.3)
        values.append(estimate_rho(s).value)
    values = np.array(values)
    sem = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean()) < 2 * sem


def test_rho_agent_mix_recovers_flow_correlation():
    # (m, l, gamma) = (0.2, 0.3, 0.5): flow correlation is exactly -1/3
    spec = AgentMixSpec(
        m=0.2,
        l=0.3,
        gamma=0.5,
        duration_dist=Dist("exponential", mean=1.0),
        size_dist=Dist("constant", value=1.0),
    )
    sample = FlowSample.from_events(gen_agent_flow(spec, horizon=200_000.0, seed=SEED))
    r = estimate_rho(sample)
    assert r.value == pytest.approx(-1.0 / 3.0, rel=0.10)
    assert abs(r.value + 1.0 / 3.0) < 4 * r.std_error


def test_rho_mirrored_flows_clamp_to_minus_one():
    rng = np.random.default_rng(SEED)
    sz = rng.standard_normal(50_000)
    with pytest.warns(RuntimeWarning, match="clamped"):
        r = estimate_rho(two_sided(sz, -sz))
    assert -1.0 < r.value < -0.999999


def test_rho_index_alignment_decorrelates_paired_flows():
    # the documented failure mode of index pairing: the two sides' event
    # counters drift apart, washing out genuine pair correlation
    spec = AgentMixSpec(
        m=0.2,
        l=0.3,
        gamma=0.5,
        duration_dist=Dist("exponential", mean=1.0),
        size_dist=Dist("constant", value=1.0),
    )
    sample = FlowSample.from_events(gen_agent_flow(spec, horizon=100_000.0, seed=SEED))
    r_merge = estimate_rho(sample)
    # re-timed so the i-th bid and i-th ask events share timestamp i: the
    # merged clock then pairs events by index
    r_index = estimate_rho(two_sided(sample.bid_sizes, sample.ask_sizes))
    assert abs(r_merge.value + 1.0 / 3.0) < 0.02
    assert abs(r_index.value) < abs(r_merge.value) / 2


def test_rho_rejects_empty_side_and_bad_alignment():
    ev = [OrderEvent(float(i), BID, 1.0) for i in range(100)]
    with pytest.raises(ValueError, match="both sides"):
        estimate_rho(FlowSample(ev, []))
    s = two_sided(np.ones(100), np.ones(100))
    with pytest.raises(TypeError, match="alignment"):
        estimate_rho(s, alignment="bucketed")


# ---------------------------------------------------------------------------
# Tail index


def test_hill_pareto_tail():
    # Pareto with exponent 2.5: the statistic estimates the reciprocal, 0.4
    rng = np.random.default_rng(SEED)
    sizes = rng.pareto(2.5, 1_000_000) + 1.0
    h = hill_estimator(sizes)
    lo, hi = h.ci95()
    assert lo < 0.4 < hi
    assert h.n_used == int(1_000_000**0.6)


def test_hill_scale_invariant():
    rng = np.random.default_rng(SEED)
    sizes = rng.pareto(2.0, 10_000) + 1.0
    h1 = hill_estimator(sizes)
    h2 = hill_estimator(sizes * 1e6)
    assert h1.value == pytest.approx(h2.value, abs=1e-12)


def test_hill_light_tail_reads_small():
    rng = np.random.default_rng(SEED)
    h = hill_estimator(rng.exponential(1.0, 200_000))
    assert h.value < 0.25


def test_hill_uses_absolute_sizes():
    rng = np.random.default_rng(SEED)
    sizes = (rng.pareto(2.5, 100_000) + 1.0) * rng.choice([-1.0, 1.0], 100_000)
    h = hill_estimator(sizes)
    assert 0.3 < h.value < 0.5


def test_hill_k_validation():
    rng = np.random.default_rng(SEED)
    sizes = rng.pareto(2.0, 1000) + 1.0
    with pytest.raises(ValueError, match="k must"):
        hill_estimator(sizes, k=500)
    with pytest.raises(ValueError, match="k must"):
        hill_estimator(sizes, k=0)
    with pytest.raises(ValueError, match="at least"):
        hill_estimator([1.0, 2.0, 3.0])


def test_hill_tied_unit_tail_is_nan_with_warning():
    # +-1 sizes: every top order statistic equals 1, so there is no tail to read
    sizes = np.where(np.random.default_rng(SEED).random(5000) < 0.5, 1.0, -1.0)
    with pytest.warns(RuntimeWarning, match="tied tail"):
        h = hill_estimator(sizes)
    assert math.isnan(h.value) and math.isnan(h.std_error)
    assert h.n_used == int(5000**0.6)


# ---------------------------------------------------------------------------
# Batch-variance diagnostic


def test_variance_ratio_iid_is_flat():
    rng = np.random.default_rng(SEED)
    table = variance_ratio_table(rng.standard_normal(1_000_000))
    assert table.max_min_ratio < 1.25
    assert [n for n, _ in table.rows] == [1, 10, 100, 1000, 10000]


def test_variance_ratio_singleton_ladder_is_sample_variance():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    table = variance_ratio_table(x, batches=(1,))
    assert table.rows[0][1] == pytest.approx(np.var(x, ddof=1))


def test_variance_ratio_detects_positive_dependence():
    rng = np.random.default_rng(SEED)
    n, phi = 200_000, 0.5
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    table = variance_ratio_table(x, batches=(1, 10, 100, 1000))
    values = [v for _, v in table.rows]
    # the column must climb from the marginal (~4/3) toward the long-run (4)
    assert values[0] < values[1] < values[2]
    assert table.max_min_ratio > 2.0


def test_variance_ratio_zero_batch_variance_has_no_ratio():
    # alternating +-1: every 2-sum is 0, so the smallest batch variance is 0
    table = variance_ratio_table(np.tile([1.0, -1.0], 50), batches=(1, 2))
    assert table.rows[1][1] == 0.0
    assert table.max_min_ratio is None


def test_variance_ratio_needs_two_batches():
    with pytest.raises(ValueError, match="at least"):
        variance_ratio_table(np.ones(100), batches=(1, 100))


# ---------------------------------------------------------------------------
# Scale map


EST = DiffusionParams(
    lambda_bid=2.0,
    lambda_ask=2.0,
    vbar_bid=0.1,
    vbar_ask=-0.1,
    v2_bid=1.0,
    v2_ask=1.0,
    rho=0.0,
)


def test_scaled_params_identity_at_equal_scales():
    sp = scaled_params(EST, 0.5, 0.5)
    assert sp.N == pytest.approx(1.0)
    assert sp.mu_bid == pytest.approx(0.2)
    assert sp.mu_ask == pytest.approx(-0.2)
    assert_allclose(sp.Lambda, EST.covariance())


def test_scaled_params_doubling_scales_correctly():
    base = scaled_params(EST, 0.5, 0.5)
    doubled = scaled_params(EST, 0.5, 1.0)
    assert doubled.N == pytest.approx(2.0)
    assert doubled.mu_bid == pytest.approx(math.sqrt(2.0) * base.mu_bid)
    assert_allclose(doubled.Lambda, 2.0 * base.Lambda)


def test_scaled_params_validation():
    with pytest.raises(ValueError):
        scaled_params(EST, 0.0, 1.0)
    with pytest.raises(ValueError):
        scaled_params(EST, 2.0, 1.0)


def test_scaled_params_poisson_pipeline():
    # end to end at the percent level: simulate a Poisson flow with known
    # rates, estimate everything, and compare the coarse-scale drift and
    # covariance against their analytic values
    spec = PoissonFlowSpec(lambda_limit=2.0, mu_market=1.0, theta_cancel=0.5, unit_size=1.0)
    events = gen_poisson_flow(spec, horizon=150_000.0, seed=SEED)
    sample = FlowSample.from_events(events)
    lb, la = estimate_rates(sample)
    (mb, vb), (ma, va) = estimate_size_moments(sample)
    est = DiffusionParams(
        lambda_bid=lb.value,
        lambda_ask=la.value,
        vbar_bid=mb.value,
        vbar_ask=ma.value,
        v2_bid=vb.value,
        v2_ask=va.value,
        rho=estimate_rho(sample).value,
    )
    sp = scaled_params(est, gamma0=1.0, gamma1=100.0)
    # per side: event rate 3.5, mean size 1/7, variance 1 - 1/49
    rate, mean = 3.5, 0.5 / 3.5
    assert sp.mu_bid == pytest.approx(10.0 * rate * mean, rel=0.01)
    assert abs(sp.mu_bid - 10.0 * 0.5) < 10.0 * 3 * lb.value * mb.std_error
    assert sp.Lambda[0, 0] == pytest.approx(100.0 * rate * (1.0 - mean**2), rel=0.01)
    assert abs(sp.Lambda[0, 1]) < 100.0 * 0.02


# ---------------------------------------------------------------------------
# Consistency ladder


def test_estimator_error_halves_when_sample_quadruples():
    # root-n consistency probed at n = 1e4, 4e4, 1.6e5: median absolute
    # error of the rate estimate should fall by ~2 per rung
    sizes = [10_000, 40_000, 160_000]
    errors = {n: [] for n in sizes}
    for seed in range(24):
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(0.5, sizes[-1])
        times = np.cumsum(gaps)
        for n in sizes:
            span = times[n - 1] - times[0]
            lam = (n - 1) / span
            errors[n].append(abs(lam - 2.0))
    med = [float(np.median(errors[n])) for n in sizes]
    assert med[0] > med[1] > med[2]
    ratio = med[0] / med[2]
    assert 2.5 < ratio < 7.0, med


# ---------------------------------------------------------------------------
# Report


def test_estimate_report_structure_and_consistency():
    spec = PoissonFlowSpec(lambda_limit=2.0, mu_market=1.0, theta_cancel=0.5, unit_size=1.0)
    sample = FlowSample.from_events(gen_poisson_flow(spec, horizon=20_000.0, seed=SEED))
    report = estimate_report(sample, gamma1=10.0)
    expected_keys = {
        "lambda_b", "lambda_a", "vbar_b", "vbar_a", "v2_b", "v2_a",
        "rho", "hill_b", "hill_a", "N", "mu", "Lambda", "diagnostics",
    }
    assert set(report) == expected_keys
    # round-trips through JSON without custom encoders
    text = json.dumps(report)
    back = json.loads(text)
    assert back["lambda_b"]["value"] == pytest.approx(3.5, rel=0.05)
    assert back["N"] == pytest.approx(10.0 / report["diagnostics"]["gamma0"])
    lb, la = estimate_rates(sample)
    assert report["lambda_b"]["value"] == lb.value
    assert len(report["mu"]) == 2
    assert np.asarray(report["Lambda"]).shape == (2, 2)
    assert report["diagnostics"]["lag_cut"] >= 1


def test_estimate_report_records_lag_cuts_and_tied_tails():
    # AR(1) bid sizes need a longer cut than the i.i.d. ask sizes
    rng = np.random.default_rng(SEED)
    n, phi = 20_000, 0.6
    e = rng.standard_normal(n)
    ar = np.empty(n)
    ar[0] = e[0]
    for i in range(1, n):
        ar[i] = phi * ar[i - 1] + e[i]
    ask = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    sample = two_sided(ar, ask, np.arange(n, dtype=float), np.arange(n) + 0.5)
    with pytest.warns(RuntimeWarning, match="tied tail"):
        report = estimate_report(sample, gamma1=10.0)
    diag = report["diagnostics"]
    cut_b, cut_a = diag["lag_cuts"]["size_moments"]
    assert cut_b > cut_a >= 1
    assert diag["lag_cut"] == max(cut_b, cut_a)
    assert diag["lag_cuts"]["rho"] == estimate_rho(sample).lag_cut
    assert diag["hill_tied_tail"] == [False, True]
    assert report["hill_a"] == {"value": None, "std_error": None, "n_used": int(n**0.6)}
    # with a fixed cut, every estimator uses it
    with pytest.warns(RuntimeWarning, match="tied tail"):
        fixed = estimate_report(sample, gamma1=10.0, lag_cut=3)["diagnostics"]
    assert fixed["lag_cut"] == 3
    assert fixed["lag_cuts"] == {"size_moments": [3, 3], "rho": 3}
