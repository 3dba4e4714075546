"""Tests for the order-flow generators.

The statistical checks run on million-sample streams built once per module
(fixtures below) and compare against analytic values with 3-standard-error
bands unless a looser tolerance is stated by the check itself.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lobdiff.book import ASK, BID, events_to_list
from lobdiff.flows import (
    ACDSpec,
    AgentMixSpec,
    ArchVolumeSpec,
    Dist,
    HawkesFlowSpec,
    PoissonFlowSpec,
    agent_pair_table,
    gen_acd_durations,
    gen_agent_flow,
    gen_arch_volumes,
    gen_hawkes_flow,
    gen_poisson_flow,
    paired_events,
)

SEED = 7041776


def batch_variance_slope(x, sizes=(100, 1000, 10000)):
    """Log-log slope of batch-sum variance vs batch size (1 = linear growth)."""
    log_vars = []
    for n in sizes:
        k = len(x) // n
        sums = x[: k * n].reshape(k, n).sum(axis=1)
        log_vars.append(math.log(sums.var(ddof=1)))
    slope = np.polyfit(np.log(sizes), log_vars, 1)[0]
    return float(slope)


def halves_differ_se(x):
    """|mean(first half) - mean(second half)| in pooled standard errors."""
    h = len(x) // 2
    a, b = x[:h], x[h : 2 * h]
    gap = abs(a.mean() - b.mean())
    pooled = math.sqrt(a.var(ddof=1) / h + b.var(ddof=1) / h)
    if pooled == 0.0:  # constant series (e.g. unit sizes)
        return 0.0 if gap == 0.0 else math.inf
    return gap / pooled


# ---------------------------------------------------------------------------
# Million-sample streams, built once


@pytest.fixture(scope="module")
def poisson_big():
    spec = PoissonFlowSpec(lambda_limit=2.0, mu_market=1.0, theta_cancel=1.0)
    # Per-side rate 4/s, merged 8/s: ~1e6 events.
    return spec, gen_poisson_flow(spec, horizon=125_000.0, seed=SEED)


@pytest.fixture(scope="module")
def hawkes_big():
    spec = HawkesFlowSpec(base_rates=(1.0,), excitation=((0.5,),), decay=(1.0,))
    # Stationary rate theta/(1 - delta/kappa) = 2/s: ~1e6 events.
    return spec, gen_hawkes_flow(spec, horizon=500_000.0, seed=SEED)


@pytest.fixture(scope="module")
def acd_big():
    spec = ACDSpec(a0=0.1, a_coeffs=(0.2,), b_coeffs=(0.3,))
    return spec, gen_acd_durations(spec, count=1_000_000, seed=SEED)


@pytest.fixture(scope="module")
def arch_big():
    spec = ArchVolumeSpec(
        alpha0_bid=1.0, alpha1_bid=0.4, alpha0_ask=2.0, alpha1_ask=0.3, rho_z=0.3
    )
    return spec, gen_arch_volumes(spec, count=1_000_000, seed=SEED)


@pytest.fixture(scope="module")
def agent_big():
    spec = AgentMixSpec(m=0.2, l=0.3, gamma=0.5)
    return spec, gen_agent_flow(spec, horizon=1_000_000.0, seed=SEED)


# ---------------------------------------------------------------------------
# Poisson


def test_poisson_sign_probability_ratio():
    spec = PoissonFlowSpec(lambda_limit=1.5, mu_market=1.5, theta_cancel=1.5)
    assert spec.p_positive == pytest.approx(1.0 / 3.0)
    _, _, deltas = gen_poisson_flow(spec, horizon=20_000.0, seed=SEED)
    n = len(deltas)
    frac = np.mean(deltas > 0)
    assert abs(frac - 1 / 3) < 3 * math.sqrt((1 / 3) * (2 / 3) / n)


def test_poisson_mean_duration(poisson_big):
    spec, (times, sides, deltas) = poisson_big
    # Per side, inter-event times are Exp(4): mean 0.25 s.
    for side in (0, 1):
        gaps = np.diff(times[sides == side])
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(gaps.mean() - 0.25) < 3 * se
    assert len(times) > 900_000


def test_poisson_sides_independent(poisson_big):
    _, (times, sides, deltas) = poisson_big
    # Signs on opposite sides are independent: correlate per-second net flows.
    edges = np.arange(0.0, 125_000.0 + 1.0, 1.0)
    net_b = np.histogram(times[sides == 0], bins=edges, weights=deltas[sides == 0])[0]
    net_a = np.histogram(times[sides == 1], bins=edges, weights=deltas[sides == 1])[0]
    r = np.corrcoef(net_b, net_a)[0, 1]
    assert abs(r) < 3 / math.sqrt(len(net_b))


def test_poisson_deterministic_and_forms_agree():
    spec = PoissonFlowSpec(2.0, 1.0, 1.0, unit_size=3.0)
    t1, s1, d1 = gen_poisson_flow(spec, 50.0, seed=11)
    t2, s2, d2 = gen_poisson_flow(spec, 50.0, seed=11)
    assert_array_equal(t1, t2)
    assert_array_equal(d1, d2)
    events = events_to_list(*gen_poisson_flow(spec, 50.0, seed=11))
    assert len(events) == len(t1)
    assert events[0].time == t1[0]
    assert events[0].side == (BID if s1[0] == 0 else ASK)
    assert set(abs(e.delta) for e in events) == {3.0}
    t3, _, _ = gen_poisson_flow(spec, 50.0, seed=12)
    assert len(t3) != len(t1) or not np.array_equal(t3, t1)


def test_poisson_rejects_bad_rates():
    with pytest.raises(ValueError):
        PoissonFlowSpec(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PoissonFlowSpec(1.0, 1.0, 1.0, unit_size=-1.0)
    with pytest.raises(ValueError, match="horizon"):
        gen_poisson_flow(PoissonFlowSpec(1.0, 1.0, 1.0), 0.0, seed=1)


# ---------------------------------------------------------------------------
# Hawkes


def test_hawkes_zero_excitation_is_poisson():
    spec = HawkesFlowSpec(base_rates=(0.7, 1.3), excitation=((0.0, 0.0), (0.0, 0.0)), decay=(1.0, 1.0))
    times, sides, _ = gen_hawkes_flow(spec, horizon=50_000.0, seed=SEED)
    # Rates theta_i per type; type parity fixes the side.
    n_b = np.sum(sides == 0)
    n_a = np.sum(sides == 1)
    assert abs(n_b / 50_000.0 - 0.7) < 3 * math.sqrt(0.7 / 50_000.0)
    assert abs(n_a / 50_000.0 - 1.3) < 3 * math.sqrt(1.3 / 50_000.0)


def test_hawkes_mean_rate_matches_branching_formula(hawkes_big):
    spec, (times, _, _) = hawkes_big
    assert spec.mean_rates()[0] == pytest.approx(2.0)
    rate = len(times) / 500_000.0
    assert abs(rate - 2.0) / 2.0 < 0.05


def test_hawkes_counts_cluster_in_time(hawkes_big):
    _, (times, _, _) = hawkes_big
    counts = np.bincount(times.astype(np.int64), minlength=500_000)[:500_000]
    c = counts.astype(float)
    r = np.corrcoef(c[:-1], c[1:])[0, 1]
    # Self-excitation induces positive dependence between adjacent seconds.
    assert r > 3 / math.sqrt(len(c))


def test_hawkes_rejects_unstable_and_misshapen():
    with pytest.raises(ValueError, match="unstable"):
        HawkesFlowSpec(base_rates=(1.0,), excitation=((1.5,),), decay=(1.0,))
    with pytest.raises(ValueError, match="shape"):
        HawkesFlowSpec(base_rates=(1.0, 1.0), excitation=((0.1,),), decay=(1.0, 1.0))
    with pytest.raises(ValueError):
        HawkesFlowSpec(base_rates=(-1.0,), excitation=((0.1,),), decay=(1.0,))


def test_hawkes_two_type_cross_excitation_rates():
    spec = HawkesFlowSpec(
        base_rates=(0.4, 0.4),
        excitation=((0.2, 0.3), (0.3, 0.2)),
        decay=(1.0, 1.0),
    )
    want = spec.mean_rates()  # (I - B)^{-1} theta = (1, 1) at these numbers
    assert_allclose(want, [0.8, 0.8])
    times, sides, _ = gen_hawkes_flow(spec, horizon=100_000.0, seed=SEED)
    for side, target in ((0, want[0]), (1, want[1])):
        rate = np.sum(sides == side) / 100_000.0
        assert abs(rate - target) / target < 0.05


def test_hawkes_deterministic():
    spec = HawkesFlowSpec(base_rates=(1.0,), excitation=((0.5,),), decay=(1.0,))
    a = gen_hawkes_flow(spec, 200.0, seed=5)
    b = gen_hawkes_flow(spec, 200.0, seed=5)
    for x, y in zip(a, b):
        assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# ACD


def test_acd_iid_case_mean():
    spec = ACDSpec(a0=0.37)
    d = gen_acd_durations(spec, count=200_000, seed=SEED)
    se = d.std(ddof=1) / math.sqrt(len(d))
    assert abs(d.mean() - 0.37) < 3 * se


def test_acd_unconditional_mean(acd_big):
    spec, d = acd_big
    assert spec.unconditional_mean == pytest.approx(0.2)
    assert len(d) == 1_000_000
    se = d.std(ddof=1) / math.sqrt(len(d))
    assert abs(d.mean() - 0.2) < 3 * se


def test_acd_degenerate_innovation_sits_at_fixed_point():
    spec = ACDSpec(
        a0=0.1, a_coeffs=(0.2,), b_coeffs=(0.3,), innovation=Dist("constant", value=1.0)
    )
    d = gen_acd_durations(spec, count=100, seed=SEED)
    # With eps = 1 the recursion is at its fixed point from the start.
    assert_allclose(d, 0.2, rtol=1e-12)


def test_acd_durations_autocorrelate():
    _, d = ACDSpec(a0=0.1, a_coeffs=(0.2,), b_coeffs=(0.3,)), None
    d = gen_acd_durations(ACDSpec(a0=0.1, a_coeffs=(0.2,), b_coeffs=(0.3,)), 200_000, SEED)
    x = d - d.mean()
    r = np.dot(x[:-1], x[1:]) / np.dot(x, x)
    assert r > 3 / math.sqrt(len(d))


def test_acd_rejects_bad_specs():
    with pytest.raises(ValueError, match="nonstationary"):
        ACDSpec(a0=0.1, a_coeffs=(0.6,), b_coeffs=(0.5,))
    with pytest.raises(ValueError):
        ACDSpec(a0=0.0)
    with pytest.raises(ValueError, match="unit mean"):
        ACDSpec(a0=0.1, innovation=Dist("exponential", mean=2.0))
    with pytest.raises(ValueError, match="count"):
        gen_acd_durations(ACDSpec(a0=0.1), 0, seed=1)


# ---------------------------------------------------------------------------
# ARCH volumes


def test_arch_alpha1_zero_is_iid_gaussian():
    spec = ArchVolumeSpec(4.0, 0.0, 9.0, 0.0, rho_z=0.6)
    v = gen_arch_volumes(spec, 400_000, seed=SEED)
    assert abs(v[:, 0].var(ddof=1) - 4.0) / 4.0 < 0.02
    assert abs(v[:, 1].var(ddof=1) - 9.0) / 9.0 < 0.02
    r = np.corrcoef(v[:, 0], v[:, 1])[0, 1]
    assert abs(r - 0.6) < 3 / math.sqrt(len(v))


def test_arch_stationary_variance(arch_big):
    spec, v = arch_big
    want_b, want_a = spec.stationary_variance()
    # Squared-ARCH averages converge slowly; 3% on 1e6 draws is ~4 sigma wide.
    assert abs(v[:, 0].var(ddof=1) - want_b) / want_b < 0.03
    assert abs(v[:, 1].var(ddof=1) - want_a) / want_a < 0.03


def test_arch_levels_uncorrelated_squares_correlated(arch_big):
    _, v = arch_big
    for col in (0, 1):
        x = v[:, col]
        lev = np.corrcoef(x[:-1], x[1:])[0, 1]
        sq = np.corrcoef(x[:-1] ** 2, x[1:] ** 2)[0, 1]
        assert abs(lev) < 4 / math.sqrt(len(x))
        assert sq > 0.1  # ARCH(1) squares follow an AR(1) with slope alpha1


def test_arch_rho_zero_uncorrelated_sides():
    spec = ArchVolumeSpec(1.0, 0.3, 1.0, 0.3, rho_z=0.0)
    v = gen_arch_volumes(spec, 200_000, seed=SEED)
    r = np.corrcoef(v[:, 0], v[:, 1])[0, 1]
    assert abs(r) < 3 / math.sqrt(len(v))


def test_arch_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        ArchVolumeSpec(0.0, 0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        ArchVolumeSpec(1.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ArchVolumeSpec(1.0, 0.1, 1.0, 0.1, rho_z=1.0)


# ---------------------------------------------------------------------------
# Agent mix


def test_agent_pair_frequencies_match_table():
    spec = AgentMixSpec(m=0.2, l=0.3, gamma=0.5)
    n = 1_000_000
    pairs = agent_pair_table(spec, n, SEED)
    b, a = pairs[:, 0], pairs[:, 1]
    two_leg = (b != 0) & (a != 0)
    pos_single_b = (b > 0) & (a == 0)
    pos_single_a = (a > 0) & (b == 0)
    neg_single_b = (b < 0) & (a == 0)
    neg_single_a = (a < 0) & (b == 0)
    for mask, p in (
        (pos_single_b, spec.m / 2),
        (pos_single_a, spec.m / 2),
        (neg_single_b, spec.l / 2),
        (neg_single_a, spec.l / 2),
        (two_leg, spec.s),
    ):
        se = math.sqrt(p * (1 - p) / n)
        assert abs(mask.mean() - p) < 3 * se


def test_agent_pair_moments_match_mix_algebra():
    # First and second moments of the signed pair, straight from the table.
    spec = AgentMixSpec(m=0.2, l=0.3, gamma=0.7, size_dist=Dist("exponential", mean=2.0))
    n = 2_000_000
    pairs = agent_pair_table(spec, n, SEED)
    vbar = 2.0
    ev2 = 8.0  # E[V^2] for exponential(mean 2)
    s, g = spec.s, spec.gamma
    want_mean = 0.5 * vbar * (2 * spec.m + 2 * g * s - 1)
    u = s * g * (1 - g)
    want_second = 0.5 * ev2 * (1 - 2 * u)
    want_cross = -u * ev2

    for col in (0, 1):
        x = pairs[:, col]
        assert abs(x.mean() - want_mean) < 4 * x.std(ddof=1) / math.sqrt(n)
        m2 = np.mean(x**2)
        assert abs(m2 - want_second) / want_second < 0.01
    cross = np.mean(pairs[:, 0] * pairs[:, 1])
    assert abs(cross - want_cross) / abs(want_cross) < 0.02


def test_agent_all_market_orders_follow_table_signs():
    spec = AgentMixSpec(m=1.0, l=0.0, gamma=0.5)
    events = events_to_list(*gen_agent_flow(spec, horizon=2_000.0, seed=SEED))
    # The mix table as printed gives market-only traders positive entries.
    assert len(events) > 1500
    assert all(e.delta > 0 for e in events)

    flipped = AgentMixSpec(m=1.0, l=0.0, gamma=0.5, flip_market_signs=True)
    events = events_to_list(*gen_agent_flow(flipped, horizon=2_000.0, seed=SEED))
    assert all(e.delta < 0 for e in events)


def test_agent_limit_only_never_touches_both_sides():
    spec = AgentMixSpec(m=0.0, l=1.0, gamma=0.5)
    times, sides, deltas = gen_agent_flow(spec, horizon=5_000.0, seed=SEED)
    assert len(np.unique(times)) == len(times)  # one event per arrival
    assert np.all(deltas < 0)  # table signs: limit-only rows are negative


def test_agent_mixed_legs_share_timestamp_bid_first():
    spec = AgentMixSpec(m=0.0, l=0.0, gamma=0.3)  # mixed traders only
    times, sides, deltas = gen_agent_flow(spec, horizon=5_000.0, seed=SEED)
    assert len(times) % 2 == 0
    t2 = times.reshape(-1, 2)
    s2 = sides.reshape(-1, 2)
    d2 = deltas.reshape(-1, 2)
    assert np.all(t2[:, 0] == t2[:, 1])  # shared timestamp
    assert_array_equal(s2[:, 0], np.zeros(len(s2), dtype=np.int8))  # bid leg first
    assert_array_equal(s2[:, 1], np.ones(len(s2), dtype=np.int8))
    # One leg positive, one negative, split gamma : (1 - gamma).
    prods = d2[:, 0] * d2[:, 1]
    assert np.all(prods < 0)
    ratio = np.abs(d2[d2[:, 0] > 0, 0]) / np.abs(d2[d2[:, 0] > 0, 1])
    assert_allclose(ratio, 0.3 / 0.7, rtol=1e-12)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("field", ["value", "mean", "sigma", "alpha", "minimum", "low", "high"])
def test_dist_rejects_non_finite_in_every_field(field):
    # Every field is checked whatever the kind, read by it or not
    for kind in ("constant", "exponential", "lognormal", "pareto", "uniform"):
        for bad in NON_FINITE:
            with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
                Dist(kind, **{field: bad})


def test_dist_rejects_low_not_below_high():
    with pytest.raises(ValueError, match="low < high"):
        Dist("uniform", low=2.0, high=1.0)
    with pytest.raises(ValueError, match="low < high"):
        Dist("constant", value=1.0, low=1.5)
    with pytest.raises(ValueError, match="unknown distribution kind"):
        Dist("normal")


@pytest.mark.parametrize("field", ["lambda_limit", "mu_market", "theta_cancel", "unit_size"])
def test_poisson_spec_rejects_non_finite(field):
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            PoissonFlowSpec(**{"lambda_limit": 1.0, "mu_market": 1.0, "theta_cancel": 1.0, field: bad})


@pytest.mark.parametrize("field, message", [("m", "m >= 0"), ("l", "l >= 0"), ("gamma", "gamma must lie")])
def test_agent_spec_rejects_non_finite(field, message):
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match=message):
            AgentMixSpec(**{"m": 0.2, "l": 0.3, "gamma": 0.5, field: bad})


def test_agent_rejects_bad_mix():
    with pytest.raises(ValueError):
        AgentMixSpec(m=0.6, l=0.6, gamma=0.5)
    with pytest.raises(ValueError):
        AgentMixSpec(m=0.2, l=0.2, gamma=1.0)
    with pytest.raises(ValueError, match="second moment"):
        AgentMixSpec(m=0.2, l=0.2, gamma=0.5, size_dist=Dist("pareto", alpha=1.5))


def test_paired_events_roundtrip():
    times = np.array([1.0, 2.0, 3.0])
    pairs = np.array([[1.5, 0.0], [0.0, -2.0], [0.5, -0.5]])
    times_o, sides_o, deltas_o = paired_events(times, pairs)
    assert_array_equal(times_o, [1.0, 2.0, 3.0, 3.0])
    assert_array_equal(sides_o, [0, 1, 0, 1])
    assert_array_equal(deltas_o, [1.5, -2.0, 0.5, -0.5])


# ---------------------------------------------------------------------------
# Cross-generator properties


def test_stationarity_smoke_all_generators(poisson_big, hawkes_big, acd_big, arch_big, agent_big):
    _, (pt, _, pd) = poisson_big
    _, (ht, _, hd) = hawkes_big
    _, acd_d = acd_big
    _, arch_v = arch_big
    _, (at, _, ad) = agent_big
    series = {
        "poisson durations": np.diff(pt),
        "poisson |sizes|": np.abs(pd),
        "hawkes durations": np.diff(ht),
        "hawkes |sizes|": np.abs(hd),
        "acd durations": acd_d,
        "arch |bid sizes|": np.abs(arch_v[:, 0]),
        "arch |ask sizes|": np.abs(arch_v[:, 1]),
        "agent durations": np.diff(np.unique(at)),
        "agent |sizes|": np.abs(ad),
    }
    for name, x in series.items():
        assert len(x) > 500_000, name
        assert halves_differ_se(x) < 3, name


def test_batch_variance_grows_linearly(poisson_big, hawkes_big, arch_big, agent_big):
    _, (_, _, pd) = poisson_big
    _, (_, _, hd) = hawkes_big
    _, arch_v = arch_big
    _, (_, _, ad) = agent_big
    for name, x in (
        ("poisson", pd),
        ("hawkes", hd),
        ("arch bid", arch_v[:, 0]),
        ("agent", ad),
    ):
        slope = batch_variance_slope(x)
        assert abs(slope - 1.0) <= 0.1, (name, slope)
