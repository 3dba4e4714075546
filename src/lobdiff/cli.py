"""Command-line entry points: simulation runs, validation suites, estimation.

One binary, five subcommands:

* ``simulate-lob``   -- replay a generated order flow through the book and
  write event/queue/price CSVs plus a summary document.
* ``validate-fclt``  -- net-flow Gaussian-limit checks over an n-ladder and
  a terminal-marginal comparison of rescaled replays against the diffusion.
* ``pup``            -- uptick-probability closed form vs Monte Carlo on a
  grid of states.
* ``duration``       -- price-change survival series vs Monte Carlo on a
  time grid.
* ``estimate``       -- full parameter report from an order-event CSV.

Every command takes ``--config`` (a JSON document, schema-checked with
path-qualified errors), ``--seed``/``--paths`` overrides, ``--out`` for the
output directory, and ``--format {csv,json}`` for what is printed to stdout.
All randomness descends from the one seed through named substreams, so
outputs are byte-identical across reruns; wall-clock details live in a
``run_meta.json`` sidecar that is excluded from that guarantee. Exit code 0
means every enabled validation passed, 1 means some check failed, 2 means
the inputs were unusable.
"""

import argparse
import itertools
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np
from scipy import stats

from . import __version__
from ._rng import child_seed, substream
from .analytics import (
    _drifted_survival_and_gap,
    duration_survival,
    flow_limit_params,
    prob_up,
    prob_up_mc,
)
from .book import PEGGED, BookState, ReinitRule, exponential_reinit, geometric_reinit, replay
from .diffusion import DiffusionParams, first_hits, net_flow_fclt_check, simulate_Q
from .estimation import FlowSample, estimate_report, mean_inter_event_time
from .flows import AgentMixSpec, Dist, PoissonFlowSpec, gen_flow
from .io import (
    ConfigError,
    load_json,
    read_events_csv,
    sha256_hex,
    validate_schema,
    write_events_csv,
    write_grid_csv,
    write_json,
    write_prices_csv,
    write_queues_csv,
)

__all__ = [
    "ValidationReport",
    "main",
    "build_parser",
    "cmd_simulate_lob",
    "cmd_validate_fclt",
    "cmd_pup",
    "cmd_duration",
    "cmd_estimate",
]


@dataclass(frozen=True)
class ValidationReport:
    """One pass/fail line of a validation suite.

    For two-sided metrics, passed <=> |observed - reference| <= tolerance.
    Trend metrics (suffix ``_trend``) are one-sided: observed <= tolerance.
    """

    metric: str
    observed: float
    reference: float
    tolerance: float
    passed: bool
    mc_std_error: float = 0.0


# ---------------------------------------------------------------------------
# Config blocks -> model objects

_DIST_KINDS = ("constant", "exponential", "lognormal", "pareto", "uniform")

_DIST_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"type": "string", "enum": list(_DIST_KINDS)},
        "value": {"type": "number", "exclusiveMinimum": 0},
        "mean": {"type": "number", "exclusiveMinimum": 0},
        "sigma": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "minimum": {"type": "number", "exclusiveMinimum": 0},
        "low": {"type": "number", "exclusiveMinimum": 0},
        "high": {"type": "number", "exclusiveMinimum": 0},
    },
}

_POISSON_SCHEMA = {
    "type": "object",
    "required": ["kind", "lambda_limit", "mu_market", "theta_cancel"],
    "properties": {
        "kind": {},
        "lambda_limit": {"type": "number", "exclusiveMinimum": 0},
        "mu_market": {"type": "number", "minimum": 0},
        "theta_cancel": {"type": "number", "minimum": 0},
        "unit_size": {"type": "number", "exclusiveMinimum": 0},
    },
}

_AGENT_SCHEMA = {
    "type": "object",
    "required": ["kind", "m", "l", "gamma", "duration", "size"],
    "properties": {
        "kind": {},
        "m": {"type": "number", "minimum": 0, "maximum": 1},
        "l": {"type": "number", "minimum": 0, "maximum": 1},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "duration": {"type": "object", "open": True},
        "size": {"type": "object", "open": True},
        "flip_market_signs": {"type": "boolean"},
    },
}

_PARAMS_SCHEMA = {
    "type": "object",
    "required": ["lambda_bid", "lambda_ask", "v2_bid", "v2_ask"],
    "properties": {
        "lambda_bid": {"type": "number", "exclusiveMinimum": 0},
        "lambda_ask": {"type": "number", "exclusiveMinimum": 0},
        "vbar_bid": {"type": "number"},
        "vbar_ask": {"type": "number"},
        "v2_bid": {"type": "number", "exclusiveMinimum": 0},
        "v2_ask": {"type": "number", "exclusiveMinimum": 0},
        "rho": {"type": "number", "exclusiveMinimum": -1, "maximum": 1},
    },
}

_REINIT_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"type": "string", "enum": ["exponential", "geometric", "pegged"]},
        "mean_bid": {"type": "number", "exclusiveMinimum": 0},
        "mean_ask": {"type": "number", "exclusiveMinimum": 0},
        "beta_bid": {"type": "number", "minimum": 0},
        "beta_ask": {"type": "number", "minimum": 0},
    },
}


def _dist_from_config(block, where):
    validate_schema(block, _DIST_SCHEMA, where)
    try:
        return Dist(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _flow_from_config(block, where):
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = block["kind"]
    if kind == "poisson":
        validate_schema(block, _POISSON_SCHEMA, where)
        fields = {k: v for k, v in block.items() if k != "kind"}
        try:
            return PoissonFlowSpec(**fields)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if kind == "agent":
        validate_schema(block, _AGENT_SCHEMA, where)
        duration = _dist_from_config(block["duration"], f"{where}.duration")
        size = _dist_from_config(block["size"], f"{where}.size")
        try:
            return AgentMixSpec(
                m=block["m"],
                l=block["l"],
                gamma=block["gamma"],
                duration_dist=duration,
                size_dist=size,
                flip_market_signs=block.get("flip_market_signs", False),
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.kind: must be one of 'poisson', 'agent', got {kind!r}")


def _params_from_config(block, where):
    validate_schema(block, _PARAMS_SCHEMA, where)
    try:
        return DiffusionParams(**block)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _reinit_from_config(block, where):
    validate_schema(block, _REINIT_SCHEMA, where)
    kind = block["kind"]
    mean_bid = block.get("mean_bid", 1.0)
    mean_ask = block.get("mean_ask", 1.0)
    if kind == "exponential":
        return exponential_reinit(mean_bid, mean_ask)
    if kind == "geometric":
        return geometric_reinit(mean_bid, mean_ask)
    base = exponential_reinit(mean_bid, mean_ask)
    try:
        return ReinitRule(
            variant=PEGGED,
            sampler_up=base.sampler_up,
            sampler_down=base.sampler_down,
            pegged_beta_bid=block.get("beta_bid", 0.0),
            pegged_beta_ask=block.get("beta_ask", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _params_from_target(mu, sigma):
    """DiffusionParams carrying an arbitrary (drift, covariance) target."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    rho = float(sigma[0, 1] / math.sqrt(sigma[0, 0] * sigma[1, 1]))
    return DiffusionParams(
        lambda_bid=1.0,
        lambda_ask=1.0,
        vbar_bid=float(mu[0]),
        vbar_ask=float(mu[1]),
        v2_bid=float(sigma[0, 0]),
        v2_ask=float(sigma[1, 1]),
        rho=rho,
    )


# ---------------------------------------------------------------------------
# Shared plumbing


def _load_config(args, schema, required=True):
    if args.config is None:
        if required:
            raise ConfigError("--config is required for this command")
        return {}, None
    cfg = load_json(args.config)
    validate_schema(cfg, schema)
    return cfg, sha256_hex(args.config)


def _resolve_seed(args, cfg):
    if args.seed is not None:
        return int(args.seed)
    return int(cfg.get("seed", 0))


def _resolve_paths(args, cfg, key, default):
    if args.paths is None:
        return cfg.get(key, default)
    if args.paths <= 0:
        raise ConfigError(f"--paths: must be > 0, got {args.paths}")
    return args.paths


def _provenance(seed, config_sha=None, **extra):
    prov = {"version": __version__, "seed": seed, "config_sha256": config_sha}
    prov.update(extra)
    return prov


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


class _Laps:
    """Wall seconds between successive `lap` calls, by stage name."""

    def __init__(self):
        self.seconds = {}
        self._last = time.perf_counter()

    def lap(self, name):
        """Charge the time since the last lap to `name`, adding up repeats."""
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._last
        self._last = now


def _write_run_meta(args, command, started, timings):
    write_json(
        _out_path(args, "run_meta.json"),
        {
            "command": command,
            "started_utc": started,
            "runtime_seconds": timings,
        },
    )


def _emit_stdout(args, doc, csv_header, csv_rows):
    if args.format == "csv":
        print(csv_header)
        for row in csv_rows:
            print(",".join(str(v) for v in row))
    else:
        import json as _json

        print(_json.dumps(doc, indent=2, sort_keys=True, default=float))


def _check_rows(checks):
    return [asdict(c) for c in checks]


# ---------------------------------------------------------------------------
# simulate-lob

_SIMULATE_SCHEMA = {
    "type": "object",
    "required": ["flow", "horizon", "initial", "reinit"],
    "properties": {
        "flow": {"type": "object", "open": True},
        "horizon": {"type": "number", "minimum": 0},
        "initial": {
            "type": "object",
            "required": ["q_bid", "q_ask"],
            "properties": {
                "q_bid": {"type": "number", "exclusiveMinimum": 0},
                "q_ask": {"type": "number", "exclusiveMinimum": 0},
                "bid_price_ticks": {"type": "integer"},
                "tick": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "reinit": {"type": "object", "open": True},
        "seed": {"type": "integer", "minimum": 0},
    },
}


def cmd_simulate_lob(args):
    """Generate a flow, replay it through the book, write the three CSVs."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    cfg, sha = _load_config(args, _SIMULATE_SCHEMA)
    seed = _resolve_seed(args, cfg)
    flow_spec = _flow_from_config(cfg["flow"], "$.flow")
    rule = _reinit_from_config(cfg["reinit"], "$.reinit")
    init = cfg["initial"]
    initial = BookState(
        bid_price_ticks=init.get("bid_price_ticks", 0),
        tick=init.get("tick", 1.0),
        q_bid=init["q_bid"],
        q_ask=init["q_ask"],
    )
    horizon = cfg["horizon"]

    laps = _Laps()
    events = gen_flow(flow_spec, horizon, child_seed(seed, "flow")) if horizon else ([], [], [])
    laps.lap("gen")
    path, prices = replay(events, initial, rule, substream(seed, "replay"))
    laps.lap("replay")

    write_events_csv(_out_path(args, "events.csv"), events)
    laps.lap("write_events")
    write_queues_csv(_out_path(args, "queues.csv"), path)
    laps.lap("write_queues")
    write_prices_csv(_out_path(args, "prices.csv"), prices)
    laps.lap("write_prices")

    n_events = len(events[0])
    summary = {
        "config": cfg,
        "provenance": _provenance(seed, sha),
        "events": n_events,
        "price_changes": len(path.jumps),
        "event_rate": (n_events / horizon) if horizon > 0 else None,
        "final_price_ticks": int(prices.price_ticks[-1]),
        "outputs": ["events.csv", "queues.csv", "prices.csv"],
    }
    write_json(_out_path(args, "summary.json"), summary)
    total = time.perf_counter() - t0
    _write_run_meta(args, "simulate-lob", started, {"total": total, **laps.seconds})
    _emit_stdout(args, summary, "events,price_changes", [(n_events, len(path.jumps))])
    return 0


# ---------------------------------------------------------------------------
# validate-fclt

_FCLT_SCHEMA = {
    "type": "object",
    "required": ["flow", "n_ladder"],
    "properties": {
        "flow": {"type": "object", "open": True},
        "n_ladder": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 1},
        },
        "reps": {"type": "integer", "minimum": 20},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "cov_tol": {"type": "number", "exclusiveMinimum": 0},
        "queue_check": {"open": True},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_QUEUE_CHECK_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 4},
        "reps": {"type": "integer", "minimum": 20},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "initial": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "reinit": {"type": "object", "open": True},
        "step_count": {"type": "integer", "minimum": 64},
    },
}


def _queue_marginal_check(flow_spec, qc, seed):
    """Terminal-marginal KS: rescaled replayed book vs the limit diffusion."""
    n = qc.get("n", 2500)
    reps = qc.get("reps", 120)
    horizon = qc.get("horizon", 1.0)
    x0 = qc.get("initial", [1.0, 1.0])
    reinit_cfg = qc.get("reinit", {"kind": "exponential", "mean_bid": 1.0, "mean_ask": 1.0})
    step_count = qc.get("step_count", 2048)
    root = math.sqrt(n)

    rule_disc = _reinit_from_config(
        {**reinit_cfg, "mean_bid": reinit_cfg.get("mean_bid", 1.0) * root,
         "mean_ask": reinit_cfg.get("mean_ask", 1.0) * root},
        "$.queue_check.reinit",
    )
    rule_diff = _reinit_from_config(reinit_cfg, "$.queue_check.reinit")
    # The book's sizes are rescaled by sqrt(n) and its time by n, so its
    # drift is sqrt(n) times the flow's; the covariance is unchanged.
    mu, sigma = flow_limit_params(flow_spec)
    params = _params_from_target(root * mu, sigma)
    initial = BookState(
        bid_price_ticks=0, tick=1.0, q_bid=root * x0[0], q_ask=root * x0[1]
    )

    disc = np.empty((reps, 2))
    diff = np.empty((reps, 2))
    for rep in range(reps):
        events = gen_flow(flow_spec, n * horizon, child_seed(seed, "qmarg-flow", rep))
        path, _ = replay(events, initial, rule_disc, substream(seed, "qmarg-reinit", rep))
        disc[rep] = path.samples[-1, 1:] / root
        limit_path = simulate_Q(
            params,
            rule_diff,
            (x0[0], x0[1]),
            horizon,
            step=horizon / step_count,
            seed=child_seed(seed, "qmarg-diff", rep),
        )
        diff[rep] = limit_path.samples[-1, 1:]

    # 1% critical value: this is a coarse secondary diagnostic, and two
    # coordinates at the 5% level would false-alarm one run in ten
    ks_critical = 1.63 * math.sqrt(2.0 / reps)
    checks = []
    for j, name in enumerate(("bid", "ask")):
        d = float(stats.ks_2samp(disc[:, j], diff[:, j]).statistic)
        checks.append(
            ValidationReport(
                metric=f"queue_terminal_ks_{name}",
                observed=d,
                reference=0.0,
                tolerance=ks_critical,
                passed=d <= ks_critical,
            )
        )
    detail = {
        "n": n,
        "reps": reps,
        "horizon": horizon,
        "ks_critical": ks_critical,
        "discrete_mean": disc.mean(axis=0).tolist(),
        "diffusion_mean": diff.mean(axis=0).tolist(),
    }
    return checks, detail


def cmd_validate_fclt(args):
    """Gaussian-limit checks for the net flow, plus the queue marginal."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    cfg, sha = _load_config(args, _FCLT_SCHEMA)
    seed = _resolve_seed(args, cfg)
    flow_spec = _flow_from_config(cfg["flow"], "$.flow")
    ladder = cfg["n_ladder"]
    reps = _resolve_paths(args, cfg, "reps", 400)
    horizon = cfg.get("horizon", 1.0)
    cov_tol = cfg.get("cov_tol", 0.05)

    t_net = time.perf_counter()
    reports = net_flow_fclt_check(flow_spec, ladder, horizon=horizon, seed=seed, reps=reps)
    net_seconds = time.perf_counter() - t_net

    rows = [
        {
            "n": r.n,
            "ks_bid": r.ks_bid,
            "ks_ask": r.ks_ask,
            "ks_critical": r.ks_critical,
            "cov_rel_error": r.cov_rel_error,
            "paths": r.reps,
            "seed": seed,
        }
        for r in reports
    ]
    last = reports[-1]
    checks = [
        ValidationReport(
            "ks_bid_final", last.ks_bid, 0.0, last.ks_critical, last.ks_bid <= last.ks_critical
        ),
        ValidationReport(
            "ks_ask_final", last.ks_ask, 0.0, last.ks_critical, last.ks_ask <= last.ks_critical
        ),
        ValidationReport(
            "cov_rel_error_final", last.cov_rel_error, 0.0, cov_tol, last.cov_rel_error <= cov_tol
        ),
    ]
    if len(reports) > 1:
        first = reports[0]
        # Once the distance is down at the Monte Carlo noise floor, two KS
        # statistics differ by O(1/sqrt(reps)) even under perfect convergence
        # (each has sampling s.d. about 0.26/sqrt(reps)), so the decrease is
        # asserted up to two standard errors of their difference.
        trend_slack = 0.74 / math.sqrt(last.reps)
        checks.append(
            ValidationReport(
                "ks_bid_trend",
                last.ks_bid - first.ks_bid,
                0.0,
                trend_slack,
                last.ks_bid - first.ks_bid <= trend_slack,
            )
        )
        checks.append(
            ValidationReport(
                "ks_ask_trend",
                last.ks_ask - first.ks_ask,
                0.0,
                trend_slack,
                last.ks_ask - first.ks_ask <= trend_slack,
            )
        )

    qc_cfg = cfg.get("queue_check", {})
    queue_detail = None
    qc_seconds = 0.0
    if qc_cfg is not False:
        validate_schema(qc_cfg, _QUEUE_CHECK_SCHEMA, "$.queue_check")
        t_qc = time.perf_counter()
        qc_checks, queue_detail = _queue_marginal_check(flow_spec, qc_cfg, seed)
        qc_seconds = time.perf_counter() - t_qc
        checks.extend(qc_checks)

    passed = all(c.passed for c in checks)
    doc = {
        "config": cfg,
        "provenance": _provenance(seed, sha),
        "rows": rows,
        "queue_check": queue_detail,
        "checks": _check_rows(checks),
        "pass": passed,
    }
    write_json(_out_path(args, "fclt_report.json"), doc)
    write_grid_csv(
        _out_path(args, "fclt_ladder.csv"),
        "n,ks_bid,ks_ask,ks_critical,cov_rel_error",
        [(r["n"], r["ks_bid"], r["ks_ask"], r["ks_critical"], r["cov_rel_error"]) for r in rows],
    )
    _write_run_meta(
        args,
        "validate-fclt",
        started,
        {"total": time.perf_counter() - t0, "net_flow": net_seconds, "queue_check": qc_seconds},
    )
    _emit_stdout(
        args,
        doc,
        "n,ks_bid,ks_ask,ks_critical,cov_rel_error",
        [(r["n"], r["ks_bid"], r["ks_ask"], r["ks_critical"], r["cov_rel_error"]) for r in rows],
    )
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# pup

_PUP_SCHEMA = {
    "type": "object",
    "required": ["params"],
    "properties": {
        "params": {"type": "object", "open": True},
        "grid": {
            "type": "object",
            "required": ["x", "y"],
            "properties": {
                "x": {"type": "array", "minItems": 1, "items": {"type": "number", "exclusiveMinimum": 0}},
                "y": {"type": "array", "minItems": 1, "items": {"type": "number", "exclusiveMinimum": 0}},
            },
        },
        "n_paths": {"type": "integer", "minimum": 100},
        "se_factor": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_DEFAULT_GRID = [0.5, 1.0, 2.0, 3.0, 4.0]


def cmd_pup(args):
    """Uptick probability: closed form against first-passage Monte Carlo."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    cfg, sha = _load_config(args, _PUP_SCHEMA)
    seed = _resolve_seed(args, cfg)
    params = _params_from_config(cfg["params"], "$.params")
    if params.vbar_bid != 0.0 or params.vbar_ask != 0.0:
        raise ConfigError("$.params: pup validation needs driftless params")
    grid = cfg.get("grid", {"x": _DEFAULT_GRID, "y": _DEFAULT_GRID})
    n_paths = _resolve_paths(args, cfg, "n_paths", 100_000)
    se_factor = cfg.get("se_factor", 3.0)
    widened = n_paths < 10_000
    if widened:
        warnings.warn(
            f"n_paths={n_paths} is a small Monte Carlo budget; "
            "tolerances are widened to a floor of 0.01",
            RuntimeWarning,
        )

    laps = _Laps()
    rows = []
    checks = []
    for i, (x, y) in enumerate(itertools.product(grid["x"], grid["y"])):
        analytic = prob_up(x, y, params)
        laps.lap("analytic")
        mc, se = prob_up_mc(x, y, params, n_paths=n_paths, seed=child_seed(seed, "pup", i))
        laps.lap("mc")
        tol = se_factor * se
        if widened:
            tol = max(tol, 0.01)
        rows.append((x, y, analytic, mc, se))
        checks.append(
            ValidationReport(
                metric=f"p_up({x:g},{y:g})",
                observed=mc,
                reference=analytic,
                tolerance=tol,
                passed=abs(mc - analytic) <= tol,
                mc_std_error=se,
            )
        )

    passed = all(c.passed for c in checks)
    doc = {
        "config": cfg,
        "provenance": _provenance(seed, sha),
        "n_paths": n_paths,
        "widened_tolerance": widened,
        "checks": _check_rows(checks),
        "pass": passed,
    }
    write_json(_out_path(args, "pup_report.json"), doc)
    write_grid_csv(_out_path(args, "pup_grid.csv"), "x,y,analytic,mc,se", rows)
    laps.lap("write")
    _write_run_meta(args, "pup", started, {"total": time.perf_counter() - t0, **laps.seconds})
    _emit_stdout(args, doc, "x,y,analytic,mc,se", rows)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# duration

_DURATION_SCHEMA = {
    "type": "object",
    "required": ["params"],
    "properties": {
        "params": {"type": "object", "open": True},
        "state": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "t_grid": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "n_paths": {"type": "integer", "minimum": 100},
        "sup_tol": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_DEFAULT_T_GRID = [0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0]


def cmd_duration(args):
    """Price-change survival: series/quadrature against Monte Carlo."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    cfg, sha = _load_config(args, _DURATION_SCHEMA)
    seed = _resolve_seed(args, cfg)
    params = _params_from_config(cfg["params"], "$.params")
    x, y = cfg.get("state", [1.0, 1.0])
    t_grid = sorted(cfg.get("t_grid", _DEFAULT_T_GRID))
    n_paths = _resolve_paths(args, cfg, "n_paths", 200_000)
    sup_tol = cfg.get("sup_tol", 0.02)
    drifted = params.vbar_bid != 0.0 or params.vbar_ask != 0.0

    laps = _Laps()
    t_max = t_grid[-1] * 1.001
    _, times = first_hits(params, (x, y), n_paths, child_seed(seed, "dur"), t_max=t_max)
    laps.lap("mc")
    if drifted:
        analytic, quad_gap = _drifted_survival_and_gap(np.asarray(t_grid), x, y, params)
    else:
        analytic = duration_survival(np.asarray(t_grid), x, y, params)
    laps.lap("analytic")

    rows = []
    checks = []
    gaps = []
    for t, a in zip(t_grid, analytic):
        mc = float(np.mean(times > t))
        se = math.sqrt(max(mc * (1.0 - mc), 0.25 / n_paths) / n_paths)
        rows.append((t, float(a), mc, se))
        checks.append(
            ValidationReport(
                metric=f"survival(t={t:g})",
                observed=mc,
                reference=float(a),
                tolerance=3.0 * se,
                passed=abs(mc - a) <= 3.0 * se,
                mc_std_error=se,
            )
        )
        if 0.05 <= mc <= 0.95:
            gaps.append(abs(mc - float(a)))
    sup_gap = max(gaps) if gaps else 0.0
    checks.append(
        ValidationReport(
            metric="survival_sup_gap",
            observed=sup_gap,
            reference=0.0,
            tolerance=sup_tol,
            passed=sup_gap <= sup_tol,
        )
    )

    passed = all(c.passed for c in checks)
    doc = {
        "config": cfg,
        "provenance": _provenance(seed, sha),
        "state": [x, y],
        "n_paths": n_paths,
        "drifted": drifted,
        "checks": _check_rows(checks),
        "pass": passed,
    }
    if drifted:
        doc["diagnostics"] = {"quad_gap": quad_gap.tolist()}
    write_json(_out_path(args, "duration_report.json"), doc)
    write_grid_csv(_out_path(args, "duration_curve.csv"), "t,analytic,mc,se", rows)
    laps.lap("write")
    _write_run_meta(args, "duration", started, {"total": time.perf_counter() - t0, **laps.seconds})
    _emit_stdout(args, doc, "t,analytic,mc,se", rows)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# estimate

_ESTIMATE_SCHEMA = {
    "type": "object",
    "properties": {
        "gamma1": {"type": "number", "exclusiveMinimum": 0},
        "lag_cut": {"type": "integer", "minimum": 1},
        "hill_k": {"type": "integer", "minimum": 1},
    },
}


def cmd_estimate(args):
    """Full parameter report from an order-event CSV."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    cfg, sha = _load_config(args, _ESTIMATE_SCHEMA, required=False)
    laps = _Laps()
    times, sides, deltas = read_events_csv(args.input)
    laps.lap("read")
    sample = FlowSample.from_arrays(times, sides, deltas)
    gamma1 = cfg.get("gamma1", 1.0)
    try:
        gamma0 = mean_inter_event_time(sample)
        if gamma1 >= gamma0:
            report = estimate_report(
                sample, gamma1=gamma1, lag_cut=cfg.get("lag_cut"), hill_k=cfg.get("hill_k")
            )
    except ValueError as exc:  # the tape is too short or too thin to estimate from
        raise ConfigError(f"{args.input}: {exc}") from None
    if gamma1 < gamma0:
        raise ConfigError(
            f"$.gamma1: the observation period {gamma1!r} s is shorter than the tape's "
            f"mean inter-event time {gamma0:.6g} s; set gamma1 to at least that"
        )
    laps.lap("estimate")

    doc = {
        "config": cfg,
        "provenance": _provenance(
            seed=None, config_sha=sha, input_sha256=sha256_hex(args.input)
        ),
        "report": report,
    }
    write_json(_out_path(args, "estimate_report.json"), doc)

    rows = []
    for key in ("lambda_b", "lambda_a", "vbar_b", "vbar_a", "v2_b", "v2_a", "rho", "hill_b", "hill_a"):
        e = report[key]
        # an undefined estimate is null in the report and nan in the tables
        value, se = (math.nan, math.nan) if e["value"] is None else (e["value"], e["std_error"])
        rows.append((key, value, se, e["n_used"]))
    rows.append(("N", report["N"], "", ""))
    rows.append(("mu_b", report["mu"][0], "", ""))
    rows.append(("mu_a", report["mu"][1], "", ""))
    rows.append(("Lambda_bb", report["Lambda"][0][0], "", ""))
    rows.append(("Lambda_ba", report["Lambda"][0][1], "", ""))
    rows.append(("Lambda_aa", report["Lambda"][1][1], "", ""))
    with open(_out_path(args, "params_table.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("param,value,std_error,n_used\n")
        for name, value, se, n in rows:
            se_txt = repr(float(se)) if se != "" else ""
            fh.write(f"{name},{float(value)!r},{se_txt},{n}\n")
    laps.lap("write")
    _write_run_meta(args, "estimate", started, {"total": time.perf_counter() - t0, **laps.seconds})
    _emit_stdout(args, doc, "param,value,std_error,n_used", rows)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lobdiff",
        description="Order-book queue simulation, diffusion limits, and estimation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON experiment config")
    common.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    common.add_argument(
        "--paths", type=int, metavar="N", help="override the Monte Carlo path/replication count"
    )
    common.add_argument("--out", default=".", metavar="DIR", help="output directory")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default="json",
        help="stdout rendering (files are always written)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate-lob", parents=[common], help="replay a generated flow through the book"
    )
    p.set_defaults(func=cmd_simulate_lob)
    p = sub.add_parser(
        "validate-fclt", parents=[common], help="net-flow Gaussian-limit validation"
    )
    p.set_defaults(func=cmd_validate_fclt)
    p = sub.add_parser("pup", parents=[common], help="uptick probability vs Monte Carlo")
    p.set_defaults(func=cmd_pup)
    p = sub.add_parser(
        "duration", parents=[common], help="price-change survival vs Monte Carlo"
    )
    p.set_defaults(func=cmd_duration)
    p = sub.add_parser(
        "estimate", parents=[common], help="parameter report from an order-event CSV"
    )
    p.add_argument("input", metavar="EVENTS_CSV", help="order-event CSV file")
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
