"""Correctness checks on the CLI's outputs, computed apart from lobdiff.

Nothing here imports lobdiff. Each check reads the files a command wrote,
recomputes what they must satisfy from the config and from first
principles, and returns a list of failure messages (empty when the output
is right) and the number of statistical comparisons it made.

Statistical comparisons each run at level ``ALPHA``. A round makes fewer
than ``MAX_STAT_CHECKS`` of them, so by the union bound the family-wise
false-alarm rate of one run is below ``FWER`` = 1e-4. Exact comparisons
(replay arithmetic, counts, closed forms) have no false-alarm rate.
"""

import json
import math
import os
from statistics import NormalDist

import numpy as np

FWER = 1e-4
MAX_STAT_CHECKS = 100
ALPHA = FWER / MAX_STAT_CHECKS
#: Two-sided normal quantile at ALPHA: 4.89.
Z = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
#: Kolmogorov tail P(sqrt(n) D > c) ~ 2 exp(-2 c^2) set to ALPHA: 2.69.
KS_C = math.sqrt(math.log(2.0 / ALPHA) / 2.0)
#: The CLI's default duration time grid, used when a config leaves it out.
DEFAULT_T_GRID = [0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0]


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _table(path):
    """A numeric CSV as a 2-D float array; numpy parses floats exactly."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_events(tape_dir):
    """(times, sides, deltas) of an events.csv; sides are 'b' or 'a'."""
    path = os.path.join(tape_dir, "events.csv")
    cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2), ndmin=2)
    sides = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, dtype="U1", ndmin=1)
    return cols[:, 0], sides, cols[:, 1]


# ---------------------------------------------------------------------------
# simulate-lob: the replay recomputed from events, queues and prices


def check_tape(out_dir, cfg):
    fails = []
    times, sides, deltas = read_events(out_dir)
    queues = _table(os.path.join(out_dir, "queues.csv"))
    prices = _table(os.path.join(out_dir, "prices.csv"))
    summary = _load_json(os.path.join(out_dir, "summary.json"))
    n = len(times)
    unit = cfg["flow"].get("unit_size", 1.0)

    if not np.all(np.isin(sides, ("a", "b"))):
        fails.append("events: side other than 'a' or 'b'")
    if not np.all(np.abs(deltas) == unit):
        fails.append(f"events: delta other than +-{unit}")
    if np.any(np.diff(times) < 0) or times[0] < 0 or times[-1] > cfg["horizon"]:
        fails.append("events: times not sorted inside [0, horizon]")
    if len(queues) != n + 1:
        return fails + [f"queues: {len(queues)} rows for {n} events, want {n + 1}"], 0
    init = cfg["initial"]
    if not (queues[0, 0] == 0.0 and queues[0, 1] == init["q_bid"] and queues[0, 2] == init["q_ask"]):
        fails.append(f"queues: first row {queues[0].tolist()} is not the initial book")
    if not np.array_equal(queues[1:, 0], times):
        fails.append("queues: times differ from the event times")
    if not np.all(queues[:, 1:] > 0):
        fails.append(f"queues: {int(np.sum(queues[:, 1:] <= 0))} values <= 0")

    ask = sides == "a"
    pre, post = queues[:-1, 1:], queues[1:, 1:]
    own_pre = np.where(ask, pre[:, 1], pre[:, 0])
    own_post = np.where(ask, post[:, 1], post[:, 0])
    other_pre = np.where(ask, pre[:, 0], pre[:, 1])
    other_post = np.where(ask, post[:, 0], post[:, 1])
    target = own_pre + deltas
    jump = target <= 0
    moved_wrong = ~jump & ((own_post != target) | (other_post != other_pre))
    if np.any(moved_wrong):
        k = int(np.argmax(moved_wrong))
        fails.append(
            f"queues: event {k} ({sides[k]}, {deltas[k]}) moves "
            f"{pre[k].tolist()} to {post[k].tolist()}"
        )

    n_jumps = int(jump.sum())
    ask_jumps = int(np.sum(jump & ask))
    bid_jumps = n_jumps - ask_jumps
    start_ticks = init.get("bid_price_ticks", 0)
    if len(prices) != n_jumps + 1:
        fails.append(f"prices: {len(prices) - 1} price steps for {n_jumps} depletions")
    else:
        steps = np.where(ask[jump], 1.0, -1.0)
        want = start_ticks + np.concatenate([[0.0], np.cumsum(steps)])
        if not (prices[0, 0] == 0.0 and np.array_equal(prices[1:, 0], times[jump])):
            fails.append("prices: step times differ from the depletion times")
        if not np.array_equal(prices[:, 1], want):
            fails.append("prices: step directions differ from the depleted sides")
    final = start_ticks + ask_jumps - bid_jumps
    if summary["final_price_ticks"] != final or prices[-1, 1] != final:
        fails.append(
            f"final price: summary {summary['final_price_ticks']}, prices.csv "
            f"{prices[-1, 1]}, depletions give {final}"
        )
    if summary["events"] != n or summary["price_changes"] != n_jumps:
        fails.append("summary: event or price-change count differs from the files")
    return fails, 0


# ---------------------------------------------------------------------------
# estimate: the fitted parameters against the simulated flow's truth


def check_estimate(out_dir, sim_cfg, tape_dir):
    """Estimates against the Poisson flow's known parameters.

    Per side the rate is lambda + mu + theta, the size is +-1 with mean
    vbar = (lambda - mu - theta) / rate and variance 1 - vbar^2, and the two
    sides are independent (rho = 0). The long-run estimators add up to
    lag_cut - 1 sample autocovariances, each with s.d. var/sqrt(n) on an
    i.i.d. series; the bounds allow each of them its own Z s.d.
    """
    fails = []
    report = _load_json(os.path.join(out_dir, "estimate_report.json"))["report"]
    _, sides, _ = read_events(tape_dir)
    counts = {"b": int(np.sum(sides == "b")), "a": int(np.sum(sides == "a"))}
    n_events = counts["b"] + counts["a"]
    flow, horizon = sim_cfg["flow"], sim_cfg["horizon"]
    rate = flow["lambda_limit"] + flow["mu_market"] + flow["theta_cancel"]
    vbar = (flow["lambda_limit"] - flow["mu_market"] - flow["theta_cancel"]) / rate
    var = 1.0 - vbar * vbar
    lags = report["diagnostics"]["lag_cut"] - 1

    def near(key, truth, bound):
        value = report[key]["value"]
        if not abs(value - truth) <= bound:
            fails.append(f"{key} = {value!r}, truth {truth!r}, bound {bound:.3g}")

    for side in ("b", "a"):
        n = counts[side]
        near(f"lambda_{side}", rate, Z * math.sqrt(rate / horizon))
        near(f"vbar_{side}", vbar, Z * math.sqrt(var / n))
        # c0 = 1 - mean^2 exactly for +-1 sizes: s.d. 2 |vbar| sqrt(var / n).
        near(
            f"v2_{side}",
            var,
            Z * (2.0 * abs(vbar) * math.sqrt(var / n) + 2.0 * lags * var / math.sqrt(n)),
        )
    near("rho", 0.0, Z * math.sqrt((2 * lags + 1) / n_events))
    used = report["lambda_b"]["n_used"] + report["lambda_a"]["n_used"] + 2
    if used != n_events:
        fails.append(f"lambda n_used + 2 = {used}, events.csv has {n_events} rows")
    return fails, 7


# ---------------------------------------------------------------------------
# pup: the wedge exit-side probability


def _stdevs(params):
    return (
        math.sqrt(params["lambda_bid"] * params["v2_bid"]),
        math.sqrt(params["lambda_ask"] * params["v2_ask"]),
    )


def wedge_p_up(x, y, params):
    """P[ask axis first] for driftless correlated Brownian motion from (x, y).

    Decorrelating the standardised coordinates maps the quadrant onto a
    wedge of angle alpha = arccos(-rho) whose ask edge is the ray at angle 0;
    the start sits at angle theta0, and the harmonic measure of the edge at
    angle 0 is 1 - theta0 / alpha.
    """
    sb, sa = _stdevs(params)
    rho = params.get("rho", 0.0)
    u, v = x / sb, y / sa
    theta0 = math.atan2(v * math.sqrt(1.0 - rho * rho), u - rho * v)
    return 1.0 - theta0 / math.acos(-rho)


def check_pup(out_dir, cfg):
    fails = []
    rows = _table(os.path.join(out_dir, "pup_grid.csv"))
    grid, params, n_paths = cfg["grid"], cfg["params"], cfg["n_paths"]
    want = [(x, y) for x in grid["x"] for y in grid["y"]]
    if [tuple(r) for r in rows[:, :2].tolist()] != want:
        return [f"pup_grid: cells {rows[:, :2].tolist()} differ from the config grid"], 0
    cells = {}
    n_stat = 0
    for x, y, analytic, mc, _ in rows.tolist():
        p = wedge_p_up(x, y, params)
        se = math.sqrt(p * (1.0 - p) / n_paths)
        cells[(x, y)] = (mc, se)
        if not abs(analytic - p) <= 1e-12:
            fails.append(f"p_up({x:g},{y:g}) analytic {analytic!r}, wedge formula {p!r}")
        if not abs(mc - p) <= Z * se:
            fails.append(f"p_up({x:g},{y:g}) MC {mc!r} is {abs(mc - p) / se:.1f} s.e. from {p!r}")
        n_stat += 1
    if params["lambda_bid"] * params["v2_bid"] == params["lambda_ask"] * params["v2_ask"]:
        # Equal variances make the book symmetric: p(x, y) + p(y, x) = 1.
        for (x, y), (mc, se) in cells.items():
            if x < y and (y, x) in cells:
                mc2, se2 = cells[(y, x)]
                bound = Z * math.hypot(se, se2)
                n_stat += 1
                if not abs(mc + mc2 - 1.0) <= bound:
                    fails.append(f"p_up({x:g},{y:g}) + p_up({y:g},{x:g}) = {mc + mc2!r}, want 1")
    return fails, n_stat


# ---------------------------------------------------------------------------
# duration: survival against the product of one-dimensional survivals


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def axis_survival(x, drift, sd, t):
    """P[x + drift s + sd W_s > 0 for all s <= t] (Bachelier-Levy)."""
    root = sd * math.sqrt(t)
    return _phi((x + drift * t) / root) - math.exp(-2.0 * drift * x / sd**2) * _phi(
        (-x + drift * t) / root
    )


def product_survival(t, state, params):
    """Two-queue survival at rho = 0: the two axes are independent."""
    if params.get("rho", 0.0) != 0.0:
        raise ValueError("the product form needs rho = 0")
    sb, sa = _stdevs(params)
    mb = params["lambda_bid"] * params.get("vbar_bid", 0.0)
    ma = params["lambda_ask"] * params.get("vbar_ask", 0.0)
    return axis_survival(state[0], mb, sb, t) * axis_survival(state[1], ma, sa, t)


def check_duration(out_dir, cfg):
    fails = []
    rows = _table(os.path.join(out_dir, "duration_curve.csv"))
    t_grid = sorted(cfg.get("t_grid", DEFAULT_T_GRID))
    if rows[:, 0].tolist() != t_grid:
        return [f"duration_curve: times {rows[:, 0].tolist()} differ from {t_grid}"], 0
    n_paths = cfg["n_paths"]
    for t, analytic, mc, _ in rows.tolist():
        s = product_survival(t, cfg["state"], cfg["params"])
        se = math.sqrt(max(s * (1.0 - s), 1.0 / n_paths) / n_paths)
        if not abs(analytic - s) <= 1e-9:
            fails.append(f"survival(t={t:g}) analytic {analytic!r}, product form {s!r}")
        if not abs(mc - s) <= Z * se:
            fails.append(f"survival(t={t:g}) MC {mc!r} is {abs(mc - s) / se:.1f} s.e. from {s!r}")
    for col, name in ((1, "analytic"), (2, "MC")):
        rises = np.diff(rows[:, col]) > 0
        if np.any(rises):
            k = int(np.argmax(rises))
            fails.append(f"{name} survival rises from t={rows[k, 0]:g} to t={rows[k + 1, 0]:g}")
    return fails, len(rows)


# ---------------------------------------------------------------------------
# validate-fclt: Gaussian-limit KS statistics and the queue-marginal means


def agent_limit_cov(flow):
    """Covariance rate of a balanced agent mix's net flows (zero drift)."""
    m, l, g = flow["m"], flow["l"], flow["gamma"]
    s = 1.0 - m - l
    size = flow["size"]
    if size["kind"] != "lognormal" or flow["duration"]["kind"] != "exponential":
        raise ValueError("the benchmark knows lognormal sizes and exponential durations")
    if m != l or g != 0.5:
        raise ValueError("the benchmark's queue check needs a balanced mix")
    ev2 = size["mean"] ** 2 * math.exp(size["sigma"] ** 2)
    # Per arrival one side gets +-V (prob m/2 and l/2), or the mixed legs
    # gamma V and -(1 - gamma) V (prob s/2 each, one per side).
    own = ev2 * (m / 2 + l / 2 + s / 2 * (g * g + (1 - g) ** 2))
    cross = -ev2 * s * g * (1 - g)
    rate = 1.0 / flow["duration"]["mean"]
    return rate * np.array([[own, cross], [cross, own]])


def terminal_queue_variance(cov, x0, horizon, mean_reinit, paths=20000, steps=1024):
    """Variance of each queue at `horizon` for the limit diffusion.

    Euler steps of the correlated Brownian motion; a step that leaves the
    quadrant redraws both queues from exponentials of mean `mean_reinit`.
    The seed is fixed: this sets a bound, it is not a sample of the run.
    """
    rng = np.random.default_rng(20120229)
    chol = np.linalg.cholesky(cov)
    dt = horizon / steps
    q = np.tile(np.asarray(x0, dtype=float), (paths, 1))
    for _ in range(steps):
        q += rng.standard_normal((paths, 2)) @ chol.T * math.sqrt(dt)
        out = np.any(q <= 0, axis=1)
        q[out] = rng.exponential(mean_reinit, (int(out.sum()), 2))
    return q.var(axis=0, ddof=1)


def check_fclt(out_dir, cfg):
    fails = []
    doc = _load_json(os.path.join(out_dir, "fclt_report.json"))
    rows = doc["rows"]
    if [r["n"] for r in rows] != cfg["n_ladder"]:
        return [f"fclt ladder {[r['n'] for r in rows]} differs from {cfg['n_ladder']}"], 0
    last = rows[-1]
    crit = KS_C / math.sqrt(last["paths"])
    for side in ("bid", "ask"):
        ks = last[f"ks_{side}"]
        if not ks <= crit:
            fails.append(f"final-rung ks_{side} = {ks:.4f} > {crit:.4f}")
    n_stat = 2
    qc = doc["queue_check"]
    qc_cfg = cfg.get("queue_check", {})
    if qc is not None:
        x0 = tuple(qc_cfg.get("initial", [1.0, 1.0]))
        reinit = qc_cfg.get("reinit", {"kind": "exponential", "mean_bid": 1.0, "mean_ask": 1.0})
        if reinit["kind"] != "exponential" or reinit["mean_bid"] != reinit["mean_ask"]:
            raise ValueError("the benchmark's queue check needs one exponential reinit mean")
        cov = agent_limit_cov(cfg["flow"])
        var = terminal_queue_variance(cov, x0, qc["horizon"], reinit["mean_bid"])
        for j, side in enumerate(("bid", "ask")):
            d, f = qc["discrete_mean"][j], qc["diffusion_mean"][j]
            bound = Z * math.sqrt(2.0 * var[j] / qc["reps"])
            n_stat += 1
            if not abs(d - f) <= bound:
                fails.append(f"terminal {side} mean: book {d:.4f}, diffusion {f:.4f}, bound {bound:.4f}")
    return fails, n_stat


def check_op(op, out_dir, cfg, tape_dir, sim_cfg):
    """(failures, statistical comparisons) for one operation's outputs."""
    if op == "simulate-lob":
        return check_tape(out_dir, cfg)
    if op == "estimate":
        return check_estimate(out_dir, sim_cfg, tape_dir)
    if op == "pup":
        return check_pup(out_dir, cfg)
    if op in ("duration", "duration-drift"):
        return check_duration(out_dir, cfg)
    return check_fclt(out_dir, cfg)
