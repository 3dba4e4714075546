"""The benchmark's workloads: which CLI commands run, on which inputs.

Every workload runs the same six operations in the same order, so every
end-to-end metric exists on every workload. Each workload runs its focus
operations at full size and the others at a small size, where their wall
time is mostly interpreter start. The small operations keep every command
measured everywhere; the full-size ones decide what the workload stresses.

A config is a plain dict; the CLI gets it as a JSON file and the checks in
``checks.py`` read the same dict for the truths they compare against.
"""

POISSON_FLOW = {"kind": "poisson", "lambda_limit": 1.2, "mu_market": 1.0, "theta_cancel": 0.4}

# Driftless and drifted limit parameters. rho = 0 in the duration runs makes
# the survival function factorise, which is what the duration check uses.
PUP_PARAMS = {"lambda_bid": 1.0, "lambda_ask": 1.0, "v2_bid": 1.0, "v2_ask": 1.0, "rho": -0.5}
DURATION_PARAMS = {"lambda_bid": 1.0, "lambda_ask": 1.0, "v2_bid": 1.0, "v2_ask": 1.0, "rho": 0.0}
DRIFT_PARAMS = {**DURATION_PARAMS, "vbar_bid": -0.2, "vbar_ask": 0.1}

# Balanced agent mix: m = l and gamma = 1/2 give zero drift on both sides.
AGENT_FLOW = {
    "kind": "agent",
    "m": 0.25,
    "l": 0.25,
    "gamma": 0.5,
    "duration": {"kind": "exponential", "mean": 1.0},
    "size": {"kind": "lognormal", "mean": 1.0, "sigma": 0.5},
}

# Operation -> end-to-end metric name, in run order.
OPS = (
    ("simulate-lob", "simulate_lob_s"),
    ("estimate", "estimate_s"),
    ("pup", "pup_s"),
    ("duration", "duration_s"),
    ("duration-drift", "duration_drift_s"),
    ("validate-fclt", "validate_fclt_s"),
)


def simulate_config(size):
    # 5.2 events per unit time: horizon 5e4 gives about 260k events. Each
    # size keeps at least ten batch sums in the largest batch of estimate's
    # variance-ratio ladder; with two, they can tie and estimate fails (see
    # CHANGES.md).
    horizon = {"small": 4000.0, "quick": 6000.0, "full": 50000.0}[size]
    return {
        "flow": POISSON_FLOW,
        "horizon": horizon,
        "initial": {"q_bid": 5.0, "q_ask": 5.0},
        "reinit": {"kind": "exponential", "mean_bid": 5.0, "mean_ask": 5.0},
    }


def pup_config(size):
    grid = [0.5, 1.0, 2.0] if size == "full" else [1.0, 2.0]
    return {"params": PUP_PARAMS, "grid": {"x": grid, "y": grid}, "n_paths": 10000}


def duration_config(size):
    cfg = {"params": DURATION_PARAMS, "state": [1.0, 1.0]}
    if size == "small":
        return {**cfg, "t_grid": [0.5, 1.0, 2.0], "n_paths": 20000}
    # Larger sizes keep the CLI's default ten-point time grid.
    return {**cfg, "n_paths": 50000 if size == "full" else 20000}


def duration_drift_config(size):
    # The drifted quadrature costs about 0.6 s per time point.
    t_grid = {"small": [1.0], "quick": [0.5, 2.0], "full": [0.5, 2.0]}[size]
    n_paths = 50000 if size == "full" else 20000
    return {"params": DRIFT_PARAMS, "state": [1.0, 1.0], "t_grid": t_grid, "n_paths": n_paths}


def fclt_config(size):
    if size == "full":
        # The queue check keeps the CLI defaults n 2500 and 2048 steps.
        return {"flow": AGENT_FLOW, "n_ladder": [16, 64, 256], "reps": 200, "queue_check": {"reps": 40}}
    if size == "quick":
        qc = {"n": 900, "reps": 40, "step_count": 512}
        return {"flow": AGENT_FLOW, "n_ladder": [16, 64, 256], "reps": 100, "queue_check": qc}
    qc = {"n": 400, "reps": 40, "step_count": 256}
    return {"flow": AGENT_FLOW, "n_ladder": [16, 64], "reps": 200, "queue_check": qc}


CONFIGS = {
    "simulate-lob": simulate_config,
    "pup": pup_config,
    "duration": duration_config,
    "duration-drift": duration_drift_config,
    "validate-fclt": fclt_config,
}

# Operations each workload runs at full size; the rest run small.
WORKLOADS = {
    "tape_poisson": ("simulate-lob", "estimate"),
    "monte_carlo": ("pup", "duration", "duration-drift", "validate-fclt"),
}


def plan(workload, quick=False):
    """[(op, size)] for one round of `workload`."""
    focus = WORKLOADS[workload]
    big = "quick" if quick else "full"
    return [(op, big if op in focus else "small") for op, _ in OPS]


def config_for(op, size):
    """Config dict of an operation, or None for `estimate` (it reads a tape)."""
    if op == "estimate":
        return None
    return CONFIGS[op](size)


def argv_for(op, config_path, out_dir, seed, tape_dir):
    """CLI arguments of one operation (after ``python3 -m lobdiff.cli``)."""
    if op == "estimate":
        return ["estimate", f"{tape_dir}/events.csv", "--out", out_dir]
    command = "duration" if op == "duration-drift" else op
    return [command, "--config", config_path, "--seed", str(seed), "--out", out_dir]
