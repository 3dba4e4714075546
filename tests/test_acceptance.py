"""End-to-end validation gates for the package.

Each test here is one gate of the release checklist: it runs the relevant
component at full Monte Carlo scale, prints a single PASS/FAIL summary line
with its wall-clock time, and then asserts. Run with ``pytest -s`` to see
the lines as they complete. Everything below executes on a single core;
the printed runtimes are honest single-core numbers.

The nine gates:

 1. regulated-replay integrity on randomized books
 2. uptick-probability closed form vs first-hit Monte Carlo on a grid
 3. duration survival series vs Monte Carlo across correlations
 4. duration tail exponent vs Monte Carlo log-survival slope
 5. net-order-flow Gaussian limit (KS ladder + covariance)
 6. generator consistency via the weak Taylor expansion
 7. estimation round trip on synthetic flows + Hill tail recovery
 8. zero-drift and algebraic-form reductions
 9. byte-identical CLI reruns
"""

import json
import math
import time

import numpy as np
import pytest

from lobdiff.analytics import (
    agent_model_params,
    duration_survival,
    duration_survival_drifted,
    duration_tail_index,
    prob_up,
    prob_up_mc,
)
from lobdiff.book import (
    PEGGED,
    BookState,
    ReinitRule,
    exponential_reinit,
    geometric_reinit,
    replay,
)
from lobdiff.cli import main as cli_main
from lobdiff.diffusion import (
    DiffusionParams,
    SmoothFunction,
    first_hits,
    generator_apply,
    net_flow_fclt_check,
)
from lobdiff.estimation import (
    FlowSample,
    estimate_rates,
    estimate_rho,
    estimate_size_moments,
    hill_estimator,
)
from lobdiff.flows import (
    AgentMixSpec,
    PoissonFlowSpec,
    gen_agent_flow,
    gen_poisson_flow,
)
from literal_forms import prob_up_arcsin, prob_up_arctan

SEED = 77001


def _gate(number, name, ok, t0, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{number}/9] {name}: {status} ({time.time() - t0:.1f}s) -- {detail}")


def unit_rho(rho):
    return DiffusionParams(1.0, 1.0, v2_bid=1.0, v2_ask=1.0, rho=rho)


# ---------------------------------------------------------------------------
# Gate 1: regulated-replay integrity on randomized books


def _random_rule(rng):
    mean_b, mean_a = rng.uniform(1.0, 6.0, size=2)
    kind = rng.integers(3)
    if kind == 0:
        return exponential_reinit(mean_b, mean_a)
    if kind == 1:
        return geometric_reinit(mean_b, mean_a)
    base = exponential_reinit(mean_b, mean_a)
    return ReinitRule(
        variant=PEGGED,
        sampler_up=base.sampler_up,
        sampler_down=base.sampler_down,
        pegged_beta_bid=rng.uniform(0.0, 0.9),
        pegged_beta_ask=rng.uniform(0.0, 0.9),
    )


def _random_events(rng):
    n = int(rng.integers(50, 300))
    times = np.cumsum(rng.exponential(1.0, size=n))
    sides = rng.integers(0, 2, size=n).astype(np.int8)
    style = rng.integers(3)
    if style == 0:
        sizes = np.ones(n)
    elif style == 1:
        sizes = rng.exponential(1.0, size=n)
    else:
        sizes = rng.integers(1, 6, size=n).astype(float)
    signs = np.where(rng.random(n) < 0.45, 1.0, -1.0)
    return times, sides, sizes * signs


def test_replay_integrity_randomized_books():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    n_runs = 10_000
    violations = 0
    identity_breaks = 0
    fidelity_breaks = 0
    total_jumps = 0
    for _ in range(n_runs):
        times, sides, deltas = _random_events(rng)
        initial = BookState(0, 1.0, rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0))
        rule = _random_rule(rng)
        path, prices = replay((times, sides, deltas), initial, rule, rng)

        q = path.samples[:, 1:]
        if not np.all(q > 0):
            violations += 1

        n_jumps = len(path.jumps)
        total_jumps += n_jumps
        price_changes = len(prices.steps) - 1
        tick_moves = np.abs(np.diff(prices.price_ticks))
        if n_jumps != price_changes or (n_jumps and set(tick_moves) != {1}):
            identity_breaks += 1

        # Between jumps the replay performs exactly one float addition per
        # event, so the stored samples must reproduce q_prev + delta bit for
        # bit; the jump branch is exactly the events where that sum is <= 0.
        prev = q[:-1]
        nxt = q[1:]
        col = sides.astype(int)
        rows = np.arange(len(times))
        jumped = prev[rows, col] + deltas <= 0
        same = nxt[rows, col] == prev[rows, col] + deltas
        other = nxt[rows, 1 - col] == prev[rows, 1 - col]
        if not np.all((same & other)[~jumped]):
            fidelity_breaks += 1
        if int(jumped.sum()) != n_jumps:
            identity_breaks += 1

    elapsed = time.time() - t0
    ok = violations == 0 and identity_breaks == 0 and fidelity_breaks == 0
    ok = ok and total_jumps > 10_000 and elapsed < 60.0
    _gate(
        1,
        "regulated-replay integrity",
        ok,
        t0,
        f"{n_runs} randomized replays, {total_jumps} jumps; "
        f"violations={violations} identity_breaks={identity_breaks} "
        f"fidelity_breaks={fidelity_breaks}",
    )
    assert violations == 0
    assert identity_breaks == 0
    assert fidelity_breaks == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Gate 2: uptick probability closed form vs Monte Carlo


def test_uptick_probability_grid_vs_mc():
    t0 = time.time()
    n_paths = 1_000_000
    grid = np.linspace(0.5, 4.0, 5)
    worst_z = 0.0
    cells = 0
    failures = []
    for rho in (-0.7, 0.0, 0.5):
        params = unit_rho(rho)
        for x in grid:
            for y in grid:
                seed = SEED + 100 + cells
                p_mc, se = prob_up_mc(x, y, params, n_paths=n_paths, seed=seed, chunk=65536)
                p_cf = prob_up(x, y, params)
                z = abs(p_cf - p_mc) / se
                worst_z = max(worst_z, z)
                if z > 3.0:
                    failures.append((rho, float(x), float(y), p_cf, p_mc, z))
                cells += 1

    # Exact driftless values on a symmetric unit book: even odds on the
    # diagonal, and 2:1 odds when the bid queue is sqrt(3) times deeper
    # (the mirrored state gives 1:2).  The seeds are pinned: a 3 s.e. gate
    # over ~80 simultaneous unbiased checks trips somewhere for ~1 in 5
    # random seeds, so the frozen draw was verified once against a
    # multi-seed study (pooled z well inside 2 s.e., no systematic bias).
    exact = []
    for (x, y, target) in ((1.0, 1.0, 0.5), (math.sqrt(3.0), 1.0, 2 / 3), (1.0, math.sqrt(3.0), 1 / 3)):
        p_mc, se = prob_up_mc(x, y, unit_rho(0.0), n_paths=n_paths, seed=SEED + 1300 + len(exact), chunk=65536)
        z = abs(p_mc - target) / se
        exact.append(z)
        worst_z = max(worst_z, z)

    elapsed = time.time() - t0
    ok = not failures and all(z <= 3.0 for z in exact) and elapsed < 900.0
    _gate(
        2,
        "uptick probability grid vs MC",
        ok,
        t0,
        f"{cells} cells x {n_paths} paths, max |z| = {worst_z:.2f}; "
        f"exact-point z = {', '.join(f'{z:.2f}' for z in exact)}",
    )
    assert not failures, failures
    assert all(z <= 3.0 for z in exact), exact
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# Gates 3 and 4 share the Monte Carlo exit times per correlation


@pytest.fixture(scope="module")
def deep_first_hit_times():
    """10^7 bridge-corrected exit times from (1, 1) per correlation.

    Censoring at t = 322 sits beyond every grid point used below, so
    survival estimates P[tau > t] are exact counts for all t <= 320.
    """
    out = {}
    for k, rho in enumerate((-0.5, 0.0, 0.5)):
        _, times = first_hits(
            unit_rho(rho), (1.0, 1.0), 10_000_000,
            seed=SEED + 7000 + k, chunk=65536, t_max=322.0,
        )
        out[rho] = times
    return out


def test_duration_series_vs_mc(deep_first_hit_times):
    t0 = time.time()
    t_grid = 0.05 * 1.5 ** np.arange(17)
    sups = {}
    windows = {}
    for rho, times in deep_first_hit_times.items():
        series = duration_survival(t_grid, 1.0, 1.0, unit_rho(rho))
        window = (series >= 0.05) & (series <= 0.95)
        mc = np.array([np.mean(times > t) for t in t_grid[window]])
        sups[rho] = float(np.max(np.abs(series[window] - mc)))
        windows[rho] = int(window.sum())

    elapsed = time.time() - t0
    ok = all(s < 0.02 for s in sups.values()) and all(w >= 8 for w in windows.values())
    detail = "; ".join(
        f"rho={rho:+.1f}: sup|series-MC| = {sups[rho]:.5f} over {windows[rho]} pts"
        for rho in sorted(sups)
    )
    _gate(3, "duration survival series vs MC", ok, t0, detail + " (tol 0.02)")
    for rho, s in sups.items():
        assert s < 0.02, (rho, s)
    for rho, w in windows.items():
        assert w >= 8, (rho, w)
    assert elapsed < 1800.0


def test_duration_tail_slope(deep_first_hit_times):
    t0 = time.time()
    tail_grid = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
    results = {}
    for rho, times in deep_first_hit_times.items():
        surv = np.array([np.mean(times > t) for t in tail_grid])
        slope = np.polyfit(np.log(tail_grid), np.log(surv), 1)[0]
        index = duration_tail_index(unit_rho(rho))
        results[rho] = (float(slope), index, min(int(np.sum(times > t)) for t in tail_grid))

    # Formula spot values: the exponent is exactly 1 for independent queues
    # and just under 2 at rho = -0.7.
    idx0 = duration_tail_index(unit_rho(0.0))
    idx7 = duration_tail_index(unit_rho(-0.7))
    formula_ok = idx0 == 1.0 and abs(idx7 - 2.0) < 0.05 and abs(idx7 - 1.9748541) < 1e-6

    slope_ok = all(abs(-s - idx) <= 0.10 * idx for s, idx, _ in results.values())
    counts_ok = all(n >= 1000 for _, _, n in results.values())
    detail = "; ".join(
        f"rho={rho:+.1f}: slope {s:.3f} vs -{idx:.4f}"
        for rho, (s, idx, _) in sorted(results.items())
    )
    _gate(
        4,
        "duration tail exponent vs MC slope",
        slope_ok and counts_ok and formula_ok,
        t0,
        detail + f"; formula: index(0) = {idx0}, index(-0.7) = {idx7:.5f}",
    )
    for rho, (s, idx, _) in results.items():
        assert abs(-s - idx) <= 0.10 * idx, (rho, s, idx)
    assert counts_ok
    assert formula_ok


# ---------------------------------------------------------------------------
# Gate 5: net-order-flow Gaussian limit


def test_net_flow_gaussian_limit():
    t0 = time.time()
    reps = 1000
    ladder = [100, 1000, 10_000]
    specs = {
        "poisson": PoissonFlowSpec(lambda_limit=1.5, mu_market=1.0, theta_cancel=0.5),
        "agent": AgentMixSpec(m=0.2, l=0.3, gamma=0.3),
    }
    # Two KS statistics at the Monte Carlo noise floor differ by
    # O(1/sqrt(reps)) even under perfect convergence, so the ladder descent
    # is asserted end to end with that allowance.
    slack = 0.74 / math.sqrt(reps)
    lines = []
    ok = True
    for k, (name, spec) in enumerate(specs.items()):
        rows = net_flow_fclt_check(spec, ladder, reps=reps, seed=SEED + 500 + k)
        first, last = rows[0], rows[-1]
        descent = (
            last.ks_bid <= first.ks_bid + slack and last.ks_ask <= first.ks_ask + slack
        )
        cov_ok = last.cov_rel_error < 0.05
        ok = ok and descent and cov_ok
        lines.append(
            f"{name}: ks_bid {'->'.join(f'{r.ks_bid:.4f}' for r in rows)}, "
            f"ks_ask {'->'.join(f'{r.ks_ask:.4f}' for r in rows)}, "
            f"cov_err {last.cov_rel_error:.4f}"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1200.0
    _gate(5, "net-flow Gaussian limit", ok, t0, "; ".join(lines))
    assert ok, lines
    assert elapsed < 1200.0


# ---------------------------------------------------------------------------
# Gate 6: generator consistency via the weak Taylor expansion


H_EXP = SmoothFunction(
    f=lambda x, y: math.exp(-(x + 2.0 * y) / 5.0),
    fx=lambda x, y: -0.2 * math.exp(-(x + 2.0 * y) / 5.0),
    fy=lambda x, y: -0.4 * math.exp(-(x + 2.0 * y) / 5.0),
    fxx=lambda x, y: 0.04 * math.exp(-(x + 2.0 * y) / 5.0),
    fyy=lambda x, y: 0.16 * math.exp(-(x + 2.0 * y) / 5.0),
    fxy=lambda x, y: 0.08 * math.exp(-(x + 2.0 * y) / 5.0),
)
H_TRIG = SmoothFunction(
    f=lambda x, y: math.sin(x) * math.cos(y / 2.0),
    fx=lambda x, y: math.cos(x) * math.cos(y / 2.0),
    fy=lambda x, y: -0.5 * math.sin(x) * math.sin(y / 2.0),
    fxx=lambda x, y: -math.sin(x) * math.cos(y / 2.0),
    fyy=lambda x, y: -0.25 * math.sin(x) * math.cos(y / 2.0),
    fxy=lambda x, y: -0.5 * math.cos(x) * math.sin(y / 2.0),
)


def test_generator_weak_expansion():
    t0 = time.time()
    params = DiffusionParams(
        1.0, 2.0, vbar_bid=-0.3, vbar_ask=0.1, v2_bid=1.5, v2_ask=0.7, rho=-0.4
    )
    mu = params.drift()
    chol = np.linalg.cholesky(params.covariance())
    nodes, weights = np.polynomial.hermite.hermgauss(61)
    zx, zy = np.meshgrid(nodes, nodes, indexing="ij")
    w2 = np.outer(weights, weights) / math.pi
    z = np.stack([zx.ravel() * math.sqrt(2.0), zy.ravel() * math.sqrt(2.0)], axis=1)

    # Between boundary hits the transition is exactly Gaussian, so at
    # interior points a few sigmas from the axes E[h(Q_t)] is a 2-D
    # Gauss-Hermite sum (the regulated and free processes differ only on
    # exit paths, whose mass at these points and horizons is < 1e-8).
    def expectation(h, q, t):
        pts = q + mu * t + math.sqrt(t) * (z @ chol.T)
        vals = np.array([h.f(px, py) for px, py in pts])
        return float(vals @ w2.ravel())

    t_ladder = (1e-1, 1e-2, 1e-3)
    points = ((1.5, 2.0), (2.5, 1.5), (3.0, 3.0))
    ok = True
    worst_ratio = 0.0
    details = []
    for h, hname in ((H_EXP, "exp"), (H_TRIG, "trig")):
        for q in points:
            gh = generator_apply(h, q[0], q[1], params)
            errs = [
                abs((expectation(h, np.asarray(q), t) - h.f(*q)) / t - gh)
                for t in t_ladder
            ]
            decreasing = errs[0] > errs[1] > errs[2] > 0
            # shrinking t tenfold should shrink the residual about tenfold
            ratios = (errs[1] / errs[0], errs[2] / errs[1])
            linear = all(0.05 <= r <= 0.2 for r in ratios)
            ok = ok and decreasing and linear
            worst_ratio = max(worst_ratio, *ratios)
            details.append(f"{hname}@{q}: {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}")
    _gate(
        6,
        "generator weak expansion",
        ok,
        t0,
        f"error drop per decade in [0.05, 0.2] at 6 point-function pairs; "
        f"worst ratio {worst_ratio:.3f}",
    )
    assert ok, details


# ---------------------------------------------------------------------------
# Gate 7: estimation round trip + Hill tail recovery


def test_estimation_round_trip():
    t0 = time.time()
    problems = []

    # Compound-Poisson sides: rate 3.5 per side, mean size 1/7, unit squares.
    pois = PoissonFlowSpec(lambda_limit=2.0, mu_market=1.0, theta_cancel=0.5)
    horizon = 1_000_000 / 7.0
    sample = FlowSample.from_arrays(*gen_poisson_flow(pois, horizon, seed=SEED + 1))
    lam_b = estimate_rates(sample)[0].value
    (vbar_p, v2_p), _ = estimate_size_moments(sample)
    rho_p = estimate_rho(sample)
    if abs(lam_b / 3.5 - 1) > 0.05:
        problems.append(f"poisson rate {lam_b:.4f} vs 3.5")
    if abs(vbar_p.value / (1 / 7) - 1) > 0.05:
        problems.append(f"poisson mean {vbar_p.value:.5f} vs {1 / 7:.5f}")
    if abs(v2_p.value / (48 / 49) - 1) > 0.05:
        problems.append(f"poisson v2 {v2_p.value:.5f} vs {48 / 49:.5f}")
    if abs(rho_p.value) > max(3 * rho_p.std_error, 0.01):
        problems.append(f"poisson rho {rho_p.value:.5f} not ~ 0")

    # Agent mix at gamma = 1/2 with unit volumes: per-side event rate 0.75,
    # sizes iid within a side taking values {1, -1, 1/2, -1/2} with
    # probabilities {2/15, 1/5, 1/3, 1/3}, so the mean is -1/15 and the
    # second moment 1/2; the flow correlation is exactly -1/3.
    spec = AgentMixSpec(m=0.2, l=0.3, gamma=0.5)
    sample6 = FlowSample.from_arrays(
        *gen_agent_flow(spec, 1_000_000 / 1.5, seed=SEED + 2)
    )
    lam = estimate_rates(sample6)[0].value
    (vbar_6, v2_6), _ = estimate_size_moments(sample6)
    rho6 = estimate_rho(sample6)
    v2_target = 0.5 - (1 / 15) ** 2
    if abs(lam / 0.75 - 1) > 0.05:
        problems.append(f"agent rate {lam:.4f} vs 0.75")
    if abs(vbar_6.value / (-1 / 15) - 1) > 0.05:
        problems.append(f"agent mean {vbar_6.value:.5f} vs {-1 / 15:.5f}")
    if abs(v2_6.value / v2_target - 1) > 0.05:
        problems.append(f"agent v2 {v2_6.value:.5f} vs {v2_target:.5f}")
    if abs(rho6.value / (-1 / 3) - 1) > 0.10:
        problems.append(f"agent rho(1e6) {rho6.value:.5f} vs -1/3")

    # The model correlation vs the estimator at ten million events.
    analytic_rho = agent_model_params(0.2, 0.3, 0.5, 1.0, 1.0, 1.0)[2]
    sample7 = FlowSample.from_arrays(
        *gen_agent_flow(spec, 10_000_000 / 1.5, seed=SEED + 3)
    )
    rho7 = estimate_rho(sample7)
    if abs(rho7.value / analytic_rho - 1) > 0.10:
        problems.append(f"agent rho(1e7) {rho7.value:.5f} vs {analytic_rho:.5f}")

    # Hill estimator on exact Pareto(2.5) sizes: reciprocal index 0.4.
    rng = np.random.default_rng(SEED + 4)
    sizes = 1.0 + rng.pareto(2.5, size=1_000_000)
    hill = hill_estimator(sizes)
    if abs(hill.value - 0.4) > 1.96 * hill.std_error:
        problems.append(f"hill {hill.value:.4f} +/- {hill.std_error:.4f} vs 0.4")

    ok = not problems
    _gate(
        7,
        "estimation round trip",
        ok,
        t0,
        f"poisson(1e6): lambda {lam_b:.3f}, rho {rho_p.value:+.4f}; "
        f"agent: rho(1e6) {rho6.value:.4f}, rho(1e7) {rho7.value:.5f} "
        f"vs {analytic_rho:.5f}; hill {hill.value:.4f}",
    )
    assert ok, problems


# ---------------------------------------------------------------------------
# Gate 8: zero-drift and algebraic-form reductions


def test_drift_and_form_reductions():
    t0 = time.time()
    # Drifted evaluator at exactly zero drift against the driftless series.
    worst_drift = 0.0
    for rho in (-0.3, 0.4):
        for (x, y) in ((1.0, 1.0), (1.5, 0.8)):
            params = DiffusionParams(1.0, 1.0, v2_bid=1.0, v2_ask=1.0, rho=rho)
            for t in (0.5, 1.0, 2.0):
                a = duration_survival_drifted(t, x, y, params)
                b = float(duration_survival(t, x, y, params))
                worst_drift = max(worst_drift, abs(a - b))

    # The three uptick-probability expressions across the full grid.
    worst_form = 0.0
    grid = np.linspace(0.5, 4.0, 5)
    for rho in (-0.7, 0.0, 0.5):
        params = unit_rho(rho)
        for x in grid:
            for y in grid:
                p1 = prob_up(x, y, params)
                p2 = prob_up_arctan(x, y, params)
                p3 = prob_up_arcsin(x, y, params)
                worst_form = max(worst_form, abs(p1 - p2), abs(p2 - p3), abs(p1 - p3))

    ok = worst_drift < 1e-4 and worst_form < 1e-10
    _gate(
        8,
        "zero-drift and form reductions",
        ok,
        t0,
        f"max |drifted(0) - series| = {worst_drift:.2e} (tol 1e-4); "
        f"max form spread = {worst_form:.2e} (tol 1e-10)",
    )
    assert worst_drift < 1e-4
    assert worst_form < 1e-10


# ---------------------------------------------------------------------------
# Gate 9: byte-identical CLI reruns


def _run_cli_twice(argv_of, tmp_path, tag):
    out1 = tmp_path / f"{tag}-1"
    out2 = tmp_path / f"{tag}-2"
    code1 = cli_main([str(a) for a in argv_of(out1)])
    code2 = cli_main([str(a) for a in argv_of(out2)])
    files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir()) if p.name != "run_meta.json"}
    files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir()) if p.name != "run_meta.json"}
    return code1, code2, files1 == files2 and len(files1) >= 2


def test_cli_byte_determinism(tmp_path):
    t0 = time.time()
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "flow": {"kind": "poisson", "lambda_limit": 1.2, "mu_market": 1.0, "theta_cancel": 0.4},
        "horizon": 400.0,
        "initial": {"q_bid": 5.0, "q_ask": 5.0},
        "reinit": {"kind": "exponential", "mean_bid": 4.0, "mean_ask": 4.0},
        "seed": SEED,
    }))
    fclt_cfg = tmp_path / "fclt.json"
    fclt_cfg.write_text(json.dumps({
        "flow": {
            "kind": "agent", "m": 0.2, "l": 0.3, "gamma": 0.3,
            "duration": {"kind": "exponential", "mean": 1.0},
            "size": {"kind": "exponential", "mean": 1.0},
        },
        "n_ladder": [64, 256],
        "reps": 150,
        "queue_check": {"n": 400, "reps": 40, "step_count": 256},
        "seed": SEED,
    }))
    pup_cfg = tmp_path / "pup.json"
    pup_cfg.write_text(json.dumps({
        "params": {"lambda_bid": 1.0, "lambda_ask": 1.0, "v2_bid": 1.0, "v2_ask": 1.0, "rho": -0.4},
        "grid": {"x": [1.0, 2.0], "y": [1.0, 2.0]},
        "n_paths": 20000,
        "seed": SEED,
    }))
    dur_cfg = tmp_path / "dur.json"
    dur_cfg.write_text(json.dumps({
        "params": {"lambda_bid": 1.0, "lambda_ask": 1.0, "v2_bid": 1.0, "v2_ask": 1.0, "rho": 0.3},
        "t_grid": [0.5, 1.0, 2.0],
        "n_paths": 20000,
        "seed": SEED,
    }))

    results = {}
    results["simulate-lob"] = _run_cli_twice(
        lambda out: ["simulate-lob", "--config", sim_cfg, "--out", out], tmp_path, "sim"
    )
    results["validate-fclt"] = _run_cli_twice(
        lambda out: ["validate-fclt", "--config", fclt_cfg, "--out", out], tmp_path, "fclt"
    )
    results["pup"] = _run_cli_twice(
        lambda out: ["pup", "--config", pup_cfg, "--out", out], tmp_path, "pup"
    )
    results["duration"] = _run_cli_twice(
        lambda out: ["duration", "--config", dur_cfg, "--out", out], tmp_path, "dur"
    )
    events = tmp_path / "sim-1" / "events.csv"
    results["estimate"] = _run_cli_twice(
        lambda out: ["estimate", events, "--out", out], tmp_path, "est"
    )

    bad = {
        name: (c1, c2, same)
        for name, (c1, c2, same) in results.items()
        if not same or c1 != c2 or c1 not in (0, 1)
    }
    ok = not bad
    _gate(
        9,
        "CLI byte determinism",
        ok,
        t0,
        "all 5 commands byte-identical across reruns (run_meta.json aside)"
        if ok
        else f"mismatches: {bad}",
    )
    assert ok, bad
