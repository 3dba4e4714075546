"""Tests for the command-line interface.

Commands run in-process through main(argv) with small Monte Carlo budgets;
the full-size grids belong to the acceptance suite. Determinism is checked
by comparing every output file byte for byte across reruns, excluding the
run_meta.json sidecar, which records wall-clock details by design.
"""

import hashlib
import json
import math
import signal

import numpy as np
import pytest

from lobdiff.cli import main

SEED = 2718


def run(argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def all_outputs(out_dir):
    """Mapping name -> bytes for every output except the volatile sidecar."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "run_meta.json"
    }


SIM_CFG = {
    "flow": {"kind": "poisson", "lambda_limit": 1.0, "mu_market": 1.0, "theta_cancel": 0.5},
    "horizon": 300.0,
    "initial": {"q_bid": 4.0, "q_ask": 4.0},
    "reinit": {"kind": "exponential", "mean_bid": 3.0, "mean_ask": 3.0},
    "seed": SEED,
}


# ---------------------------------------------------------------------------
# simulate-lob


def test_simulate_lob_writes_consistent_outputs(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    out = tmp_path / "run"
    assert run(["simulate-lob", "--config", cfg, "--out", out]) == 0

    events = (out / "events.csv").read_text().splitlines()
    queues = (out / "queues.csv").read_text().splitlines()
    prices = (out / "prices.csv").read_text().splitlines()
    summary = json.loads((out / "summary.json").read_text())

    n_events = len(events) - 1
    assert summary["events"] == n_events
    # one queue row per event plus the initial state
    assert len(queues) - 1 == n_events + 1
    # one price row per change plus the starting price
    assert len(prices) - 1 == summary["price_changes"] + 1
    assert summary["price_changes"] > 5
    assert summary["provenance"]["seed"] == SEED
    assert summary["provenance"]["version"]
    assert len(summary["provenance"]["config_sha256"]) == 64
    # drift mu + theta - lambda = 0.5 per side drains the queues
    rate = summary["event_rate"]
    assert rate == pytest.approx(2 * 2.5, rel=0.1)


def test_simulate_lob_is_byte_identical_across_reruns(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate-lob", "--config", cfg, "--out", out1]) == 0
    assert run(["simulate-lob", "--config", cfg, "--out", out2]) == 0
    assert all_outputs(out1) == all_outputs(out2)


# sha256 of the simulate-lob outputs for SIM_CFG, recorded before the event
# stream became columnar end to end; any change to the generated flow, the
# replay arithmetic, the CSV/JSON formatting or the package version shows up
# here.
PINNED_SHA256 = {
    "events.csv": "b708842b24f0e57d1aec716a29d9378d7ee9a80c9620f5623c14f499ee4312d6",
    "queues.csv": "3bbddffe579f3d6ef699ec32fb103e3de6e6c078d09f9315ede2446c65612798",
    "prices.csv": "88dede5c7c2db26c6220055f8da1070ee35053072e49d69450e238c8e0ca8bd0",
    "summary.json": "1038d3ebb5e760b4b16fec7365dc87e39e0694c676035943a1c6072d9141b162",
}


def test_simulate_lob_outputs_match_pinned_hashes(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    out = tmp_path / "run"
    assert run(["simulate-lob", "--config", cfg, "--out", out]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert got == PINNED_SHA256


def test_simulate_lob_run_meta_times_each_stage(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    out = tmp_path / "run"
    assert run(["simulate-lob", "--config", cfg, "--out", out]) == 0
    seconds = json.loads((out / "run_meta.json").read_text())["runtime_seconds"]
    stages = ("gen", "replay", "write_events", "write_queues", "write_prices")
    assert set(seconds) == {"total", *stages}
    assert all(seconds[k] >= 0 for k in stages)
    assert sum(seconds[k] for k in stages) <= seconds["total"]


def test_simulate_lob_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(["simulate-lob", "--config", cfg, "--out", out1, "--seed", 9])
    run(["simulate-lob", "--config", cfg, "--out", out2])
    assert (out1 / "events.csv").read_bytes() != (out2 / "events.csv").read_bytes()
    assert json.loads((out1 / "summary.json").read_text())["provenance"]["seed"] == 9


def test_simulate_lob_zero_horizon_empty_outputs(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {**SIM_CFG, "horizon": 0.0})
    out = tmp_path / "zero"
    assert run(["simulate-lob", "--config", cfg, "--out", out]) == 0
    assert (out / "events.csv").read_text() == "time,side,delta\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["events"] == 0
    assert summary["price_changes"] == 0
    assert summary["event_rate"] is None


def test_simulate_lob_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "bad.json", {**SIM_CFG, "flow": {"kind": "poisson", "mu_market": 1.0}}
    )
    assert run(["simulate-lob", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "$.flow.lambda_limit" in err
    assert run(["simulate-lob", "--out", tmp_path / "x"]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_simulate_lob_stdout_formats(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    run(["simulate-lob", "--config", cfg, "--out", tmp_path / "a", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "events,price_changes"
    run(["simulate-lob", "--config", cfg, "--out", tmp_path / "b", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"] > 0


# ---------------------------------------------------------------------------
# pup


PUP_CFG = {
    "params": {"lambda_bid": 1.0, "lambda_ask": 1.0, "v2_bid": 1.0, "v2_ask": 1.0, "rho": -0.5},
    "grid": {"x": [1.0, 2.0], "y": [1.0, 2.0]},
    "n_paths": 20000,
    "seed": SEED,
}


def test_pup_grid_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "pup.json", PUP_CFG)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert run(["pup", "--config", cfg, "--out", out1]) == 0
    assert run(["pup", "--config", cfg, "--out", out2]) == 0
    assert all_outputs(out1) == all_outputs(out2)

    grid = (out1 / "pup_grid.csv").read_text().splitlines()
    assert grid[0] == "x,y,analytic,mc,se"
    assert len(grid) - 1 == 4
    report = json.loads((out1 / "pup_report.json").read_text())
    assert report["pass"] is True
    assert len(report["checks"]) == 4
    for check in report["checks"]:
        assert abs(check["observed"] - check["reference"]) <= check["tolerance"]


def test_pup_small_budget_widens_tolerance(tmp_path):
    cfg = write_config(tmp_path, "pup.json", PUP_CFG)
    out = tmp_path / "p"
    with pytest.warns(RuntimeWarning, match="small Monte Carlo budget"):
        code = run(["pup", "--config", cfg, "--out", out, "--paths", 2000])
    assert code == 0
    report = json.loads((out / "pup_report.json").read_text())
    assert report["widened_tolerance"] is True
    assert report["n_paths"] == 2000


def test_pup_rejects_drifted_params(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "pup.json",
        {**PUP_CFG, "params": {**PUP_CFG["params"], "vbar_bid": -0.1}},
    )
    assert run(["pup", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "driftless" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# duration


DUR_CFG = {
    "params": {"lambda_bid": 1.0, "lambda_ask": 1.0, "v2_bid": 1.0, "v2_ask": 1.0, "rho": 0.0},
    "state": [1.0, 1.0],
    "t_grid": [0.5, 1.0, 2.0],
    "n_paths": 20000,
    "seed": SEED,
}


def test_duration_curve_passes(tmp_path):
    cfg = write_config(tmp_path, "dur.json", DUR_CFG)
    out = tmp_path / "d"
    assert run(["duration", "--config", cfg, "--out", out]) == 0
    curve = (out / "duration_curve.csv").read_text().splitlines()
    assert curve[0] == "t,analytic,mc,se"
    assert len(curve) - 1 == 3
    report = json.loads((out / "duration_report.json").read_text())
    assert report["pass"] is True
    assert report["drifted"] is False
    # survival(t=1) from (1,1) uncorrelated is erf(1/sqrt 2)^2 = 0.4661
    row1 = [c for c in report["checks"] if c["metric"] == "survival(t=1)"][0]
    assert row1["reference"] == pytest.approx(0.46606, abs=1e-4)
    metrics = [c["metric"] for c in report["checks"]]
    assert "survival_sup_gap" in metrics


def test_duration_drifted_params_use_quadrature(tmp_path):
    cfg = write_config(
        tmp_path,
        "dur.json",
        {
            **DUR_CFG,
            "params": {**DUR_CFG["params"], "vbar_bid": -0.2, "vbar_ask": -0.1},
            "t_grid": [0.5, 1.0],
            "n_paths": 20000,
        },
    )
    out = tmp_path / "d"
    assert run(["duration", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "duration_report.json").read_text())
    assert report["drifted"] is True
    assert report["pass"] is True


def test_duration_drifted_report_carries_quad_gap(tmp_path):
    cfg = write_config(
        tmp_path,
        "dur.json",
        {
            **DUR_CFG,
            "params": {**DUR_CFG["params"], "vbar_bid": -0.2, "vbar_ask": -0.1},
            "t_grid": [1.0, 0.5],
            "n_paths": 2000,
        },
    )
    runs = []
    for name in ("a", "b"):
        assert run(["duration", "--config", cfg, "--out", tmp_path / name]) in (0, 1)
        runs.append(all_outputs(tmp_path / name))
    assert runs[0] == runs[1]
    report = json.loads(runs[0]["duration_report.json"])
    gaps = report["diagnostics"]["quad_gap"]
    # one gap per t, in sorted t_grid order, each within the default quad_tol
    assert len(gaps) == 2
    assert all(0.0 <= g < 1e-4 for g in gaps)
    driftless = write_config(tmp_path, "flat.json", {**DUR_CFG, "n_paths": 2000})
    assert run(["duration", "--config", driftless, "--out", tmp_path / "c"]) in (0, 1)
    assert "diagnostics" not in json.loads((tmp_path / "c" / "duration_report.json").read_text())


# ---------------------------------------------------------------------------
# validate-fclt


def test_validate_fclt_report_fields(tmp_path):
    cfg = write_config(
        tmp_path,
        "fclt.json",
        {
            "flow": {"kind": "poisson", "lambda_limit": 1.5, "mu_market": 1.0, "theta_cancel": 0.5},
            "n_ladder": [64, 256],
            "reps": 150,
            "queue_check": False,
            "seed": SEED,
        },
    )
    out = tmp_path / "f"
    assert run(["validate-fclt", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "fclt_report.json").read_text())
    assert report["pass"] is True
    assert report["queue_check"] is None
    for row in report["rows"]:
        assert set(row) == {"n", "ks_bid", "ks_ask", "ks_critical", "cov_rel_error", "paths", "seed"}
        assert row["paths"] == 150
    ladder = (out / "fclt_ladder.csv").read_text().splitlines()
    assert ladder[0] == "n,ks_bid,ks_ask,ks_critical,cov_rel_error"
    metrics = {c["metric"] for c in report["checks"]}
    assert {"ks_bid_final", "ks_ask_final", "cov_rel_error_final", "ks_bid_trend"} <= metrics


def test_validate_fclt_queue_marginal_check(tmp_path):
    cfg = write_config(
        tmp_path,
        "fclt.json",
        {
            "flow": {"kind": "poisson", "lambda_limit": 1.5, "mu_market": 1.0, "theta_cancel": 0.5},
            "n_ladder": [256],
            "reps": 100,
            "queue_check": {"n": 400, "reps": 60, "step_count": 256},
            "seed": 3,
        },
    )
    out = tmp_path / "f"
    code = run(["validate-fclt", "--config", cfg, "--out", out])
    report = json.loads((out / "fclt_report.json").read_text())
    metrics = {c["metric"] for c in report["checks"]}
    assert {"queue_terminal_ks_bid", "queue_terminal_ks_ask"} <= metrics
    assert report["queue_check"]["n"] == 400
    assert code == (0 if report["pass"] else 1)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_round_trip_from_simulation(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {**SIM_CFG, "horizon": 30000.0, "initial": {"q_bid": 1e9, "q_ask": 1e9}},
    )
    out = tmp_path / "run"
    assert run(["simulate-lob", "--config", cfg, "--out", out]) == 0
    est_out = tmp_path / "est"
    assert run(["estimate", out / "events.csv", "--out", est_out]) == 0
    report = json.loads((est_out / "estimate_report.json").read_text())["report"]
    # truth: per-side rate 2.5, mean size (1 - 1.5)/2.5 = -0.2, second moment 1
    assert report["lambda_b"]["value"] == pytest.approx(2.5, rel=0.05)
    assert report["lambda_a"]["value"] == pytest.approx(2.5, rel=0.05)
    assert report["vbar_b"]["value"] == pytest.approx(-0.2, rel=0.10)
    assert report["v2_b"]["value"] == pytest.approx(1.0 - 0.2**2, rel=0.05)
    assert abs(report["rho"]["value"]) < 0.02
    table = (est_out / "params_table.csv").read_text().splitlines()
    assert table[0] == "param,value,std_error,n_used"
    names = [line.split(",")[0] for line in table[1:]]
    assert names == [
        "lambda_b", "lambda_a", "vbar_b", "vbar_a", "v2_b", "v2_a", "rho",
        "hill_b", "hill_a", "N", "mu_b", "mu_a", "Lambda_bb", "Lambda_ba", "Lambda_aa",
    ]


def test_estimate_negative_timestamp_names_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("time,side,delta\n0.5,b,1.0\n0.75,a,-1.0\n-1.0,b,2.0\n")
    assert run(["estimate", p, "--out", tmp_path / "x"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_estimate_missing_file_exits_two(tmp_path, capsys):
    assert run(["estimate", tmp_path / "nope.csv", "--out", tmp_path / "x"]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_estimate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    out = tmp_path / "run"
    run(["simulate-lob", "--config", cfg, "--out", out])
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert run(["estimate", out / "events.csv", "--out", e1]) == 0
    assert run(["estimate", out / "events.csv", "--out", e2]) == 0
    assert all_outputs(e1) == all_outputs(e2)


@pytest.mark.parametrize(
    "rows, line",
    [
        ("0.5,b,1.0\nnan,a,-1.0\n", 3),
        ("0.5,b,1.0\n0.75,a,1.0\ninf,b,2.0\n", 4),
        ("0.5,b,0.0\n", 2),
        ("0.5,b,1.0\n0.75,a,nan\n", 3),
        ("0.5,b,1.0\n0.75,a,-inf\n", 3),
        ("0.5,b,1.0\n0.75,a,-1.0\n0.6,b,1.0\n", 4),
    ],
    ids=["nan-time", "inf-time", "zero-delta", "nan-delta", "inf-delta", "time-goes-back"],
)
def test_estimate_unusable_tape_names_line(tmp_path, capsys, rows, line):
    p = tmp_path / "bad.csv"
    p.write_text("time,side,delta\n" + rows)
    assert run(["estimate", p, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert f"line {line}" in err
    assert "Traceback" not in err


def test_estimate_survives_tied_batch_sums(tmp_path):
    # At this size and seed the ask side's two largest-batch sums tied, and
    # the batch-variance ratio divided by zero.
    flow = {"kind": "poisson", "lambda_limit": 1.2, "mu_market": 1.0, "theta_cancel": 0.4}
    cfg = write_config(
        tmp_path,
        "sim.json",
        {
            "flow": flow,
            "horizon": 8000.0,
            "initial": {"q_bid": 5.0, "q_ask": 5.0},
            "reinit": {"kind": "exponential", "mean_bid": 5.0, "mean_ask": 5.0},
        },
    )
    out = tmp_path / "run"
    assert run(["simulate-lob", "--config", cfg, "--seed", 104, "--out", out]) == 0
    est_out = tmp_path / "est"
    with pytest.warns(RuntimeWarning, match="tied tail"):
        assert run(["estimate", out / "events.csv", "--out", est_out]) == 0
    report = json.loads((est_out / "estimate_report.json").read_text())["report"]
    diag = report["diagnostics"]
    assert [b for b, _ in diag["variance_ratio_ask"]] == [1, 10, 100, 1000]
    assert report["hill_b"]["value"] is None and report["hill_a"]["value"] is None
    assert diag["hill_tied_tail"] == [True, True]
    meta = json.loads((est_out / "run_meta.json").read_text())["runtime_seconds"]
    assert set(meta) == {"total", "read", "estimate", "write"}


# ---------------------------------------------------------------------------
# Stage timings, the drifted queue check, and located input errors


@pytest.mark.parametrize("command, cfg", [("pup", PUP_CFG), ("duration", DUR_CFG)])
def test_monte_carlo_run_meta_times_each_stage(tmp_path, command, cfg):
    path = write_config(tmp_path, f"{command}.json", cfg)
    out = tmp_path / "run"
    assert run([command, "--config", path, "--out", out]) == 0
    seconds = json.loads((out / "run_meta.json").read_text())["runtime_seconds"]
    stages = ("mc", "analytic", "write")
    assert set(seconds) == {"total", *stages}
    assert all(seconds[k] >= 0 for k in stages)
    assert sum(seconds[k] for k in stages) <= seconds["total"]


def test_validate_fclt_queue_check_passes_on_drifted_flow(tmp_path):
    # The flow drifts at -0.2 per side. Before the limit diffusion carried the
    # book's sqrt(n)-amplified drift, the terminal KS distances at this seed
    # were about 0.4 against a critical value of 0.21.
    cfg = write_config(
        tmp_path,
        "fclt.json",
        {
            "flow": {"kind": "poisson", "lambda_limit": 1.2, "mu_market": 1.0, "theta_cancel": 0.4},
            "n_ladder": [16, 64, 256],
            "reps": 200,
            "seed": 3,
        },
    )
    out = tmp_path / "f"
    assert run(["validate-fclt", "--config", cfg, "--out", out]) == 0
    checks = {c["metric"]: c for c in json.loads((out / "fclt_report.json").read_text())["checks"]}
    for name in ("queue_terminal_ks_bid", "queue_terminal_ks_ask"):
        assert checks[name]["observed"] < 0.15 < checks[name]["tolerance"]


FCLT_CFG = {
    "flow": {"kind": "poisson", "lambda_limit": 1.5, "mu_market": 1.0, "theta_cancel": 0.5},
    "n_ladder": [64],
    "queue_check": False,
}


@pytest.mark.parametrize(
    "command, cfg, extra, where",
    [
        ("pup", PUP_CFG, ["--paths", 0], "--paths"),
        ("pup", PUP_CFG, ["--paths", -5], "--paths"),
        ("duration", DUR_CFG, ["--paths", 0], "--paths"),
        ("validate-fclt", FCLT_CFG, ["--paths", 0], "--paths"),
        ("duration", {**DUR_CFG, "state": [1.0, 1.0, 1.0]}, [], "$.state"),
        (
            "simulate-lob",
            {**SIM_CFG, "flow": {**SIM_CFG["flow"], "mu_market": 0.0}},
            [],
            "$.flow",
        ),
    ],
    ids=["pup-paths-0", "pup-paths-neg", "duration-paths-0", "fclt-paths-0", "state-3", "mu-market-0"],
)
def test_unusable_input_exits_two_with_location(tmp_path, capsys, command, cfg, extra, where):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "x", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, cfg, extra, where, value",
    [
        (
            "pup",
            {**PUP_CFG, "params": {**PUP_CFG["params"], "lambda_bid": math.nan}},
            ["--paths", 100],
            "$.params.lambda_bid",
            "nan",
        ),
        (
            "duration",
            {**DUR_CFG, "params": {**DUR_CFG["params"], "vbar_bid": math.nan}},
            [],
            "$.params.vbar_bid",
            "nan",
        ),
        ("duration", {**DUR_CFG, "state": [1.0, math.inf]}, [], "$.state[1]", "inf"),
    ],
    ids=["pup-lambda-nan", "duration-vbar-nan", "duration-state-inf"],
)
def test_non_finite_config_exits_two_with_location(tmp_path, capsys, command, cfg, extra, where, value):
    # json.dumps writes the NaN/Infinity tokens that json.loads accepts by
    # default; such a number used to hang pup or price a survival at 0.0
    path = write_config(tmp_path, "cfg.json", cfg)

    def hung(signum, frame):
        raise TimeoutError(f"{command} did not exit within 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        code = run([command, "--config", path, "--out", tmp_path / "x", *extra])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {where}: number {value} is not finite")
    assert not (tmp_path / "x").exists()


def test_estimate_slow_tape_names_gamma1(tmp_path, capsys):
    # Events every 2 s, alternating sides: each side's mean inter-event time
    # is 4 s, longer than the default 1 s observation period.
    def tape(name, sizes):
        rows = "".join(f"{2.0 * i!r},{'ba'[i % 2]},{v!r}\n" for i, v in enumerate(sizes, 1))
        p = tmp_path / name
        p.write_text("time,side,delta\n" + rows)
        return p

    short = tape("short.csv", [(-1.0) ** (i // 2) for i in range(1, 41)])
    assert run(["estimate", short, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: $.gamma1")
    assert "mean inter-event time 4 s" in err
    # With a long enough period the 20 events per side are still too few
    # for the lag cut their sizes call for: a located error, not a traceback.
    cfg = write_config(tmp_path, "est.json", {"gamma1": 10.0})
    assert run(["estimate", short, "--config", cfg, "--out", tmp_path / "y"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {short}: need at least")
    long = tape("long.csv", np.random.default_rng(5).standard_normal(400).tolist())
    assert run(["estimate", long, "--config", cfg, "--out", tmp_path / "z"]) == 0
    report = json.loads((tmp_path / "z" / "estimate_report.json").read_text())["report"]
    assert report["diagnostics"]["gamma0"] == pytest.approx(4.0)
