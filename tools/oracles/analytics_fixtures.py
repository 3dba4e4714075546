"""Monte Carlo oracle runs backing the frozen fixtures in test_analytics.py.

The bridge-corrected first-hit sampler is the oracle here: it shares no code
with the closed forms under test (wedge angles, Bessel series, tilted
quadrature) and is itself validated against exact one-dimensional laws in
test_diffusion.py. Run this script to regenerate every fixture; each block
prints the value, its standard error, and the analytic counterparts so the
adjudications (U variant, inner sine variant) are visible in the output. The
literal variants come from tests/literal_forms.py, their one home.

Usage: python3 tools/oracles/analytics_fixtures.py [--quick]
(--quick cuts path counts 100x for a smoke run; frozen numbers come from the
full run.)
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

from lobdiff.analytics import (
    duration_survival,
    duration_survival_drifted,
    prob_up,
)
from lobdiff.diffusion import SIDE_ASK, DiffusionParams, first_hits
from lobdiff.flows import agent_pair_table, AgentMixSpec, Dist

# The counter-example formulas live with the tests that check them.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
from literal_forms import (  # noqa: E402
    agent_literal_moments,
    survival_drifted_literal_sine,
    survival_literal_radius,
)


def _survival_fixture(name, params, state, t_grid, n_paths, seed):
    t0 = time.time()
    sides, times = first_hits(params, state, n_paths, seed=seed)
    assert np.all(sides >= 0)
    print(f"[{name}] {n_paths:.0e} paths in {time.time() - t0:.0f}s")
    p_ask = float(np.mean(sides == SIDE_ASK))
    se_p = math.sqrt(p_ask * (1 - p_ask) / n_paths)
    print(f"  P[ask first] = {p_ask:.6f} +- {se_p:.6f}")
    rows = []
    for t in t_grid:
        s_hat = float(np.mean(times > t))
        se = math.sqrt(max(s_hat * (1 - s_hat), 0.25 / n_paths) / n_paths)
        rows.append((t, s_hat, se))
        print(f"  S({t:g}) = {s_hat:.6f} +- {se:.6f}")
    return p_ask, se_p, rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    n_big = 10**5 if args.quick else 10**7
    n_mid = 10**4 if args.quick else 10**6

    # --- 1. exit-side probability, rho = -0.7, equal scales, state (1, 2)
    params = DiffusionParams(1.0, 1.0, rho=-0.7)
    t0 = time.time()
    sides, _ = first_hits(params, (1.0, 2.0), n_big, seed=20240801)
    p = float(np.mean(sides == SIDE_ASK))
    se = math.sqrt(p * (1 - p) / n_big)
    print(f"[p_up rho=-0.7 (1,2)] {n_big:.0e} paths in {time.time() - t0:.0f}s")
    print(f"  MC      = {p:.6f} +- {se:.6f}")
    print(f"  closed  = {prob_up(1.0, 2.0, params):.6f}")

    # --- 2. driftless survival, rho = 0, (1,1): MC vs series vs erf^2
    unit = DiffusionParams(1.0, 1.0)
    t_grid = (0.5, 1.0, 2.0)
    _, _, rows = _survival_fixture("survival rho=0 (1,1)", unit, (1.0, 1.0),
                                   t_grid, n_big, seed=20240802)
    for t, s_hat, se in rows:
        exact = float(special.erf(1.0 / math.sqrt(2.0 * t)) ** 2)
        print(f"  t={t:g}: series={duration_survival(t, 1, 1, unit):.6f} "
              f"erf^2={exact:.6f} mc={s_hat:.6f}")

    # --- 3. U-variant adjudication: correlated, unequal scales
    for rho in (-0.5, 0.5):
        p3 = DiffusionParams(2.0, 1.0, v2_bid=1.5, v2_ask=0.7, rho=rho)
        state = (1.2, 0.8)
        t_grid = (0.2, 0.5, 1.0)
        _, _, rows = _survival_fixture(f"survival rho={rho} scaled", p3, state,
                                       t_grid, n_mid, seed=20240803)
        for t, s_hat, se in rows:
            s_std = duration_survival(t, *state, p3)
            s_lit = survival_literal_radius(t, *state, p3)
            print(f"  t={t:g}: standardized={s_std:.6f} literal={s_lit:.6f} "
                  f"mc={s_hat:.6f}+-{se:.6f}")

    # --- 4. inner-sine adjudication: drifted survival
    pd = DiffusionParams(1.0, 1.0, vbar_bid=-0.3, vbar_ask=-0.2, rho=-0.3)
    state = (1.0, 1.0)
    t_grid = (0.5, 1.0, 2.0)
    _, _, rows = _survival_fixture("drifted survival", pd, state, t_grid,
                                   n_mid, seed=20240804)
    for t, s_hat, se in rows:
        s_cor = duration_survival_drifted(t, *state, pd)
        s_lit = survival_drifted_literal_sine(t, *state, pd)
        print(f"  t={t:g}: corrected={s_cor:.6f} literal={s_lit:.6f} "
              f"mc={s_hat:.6f}+-{se:.6f}")

    # --- 5. intraday-calibrated drifted fixture (per-second units, t = 30s)
    citi = DiffusionParams(
        1.0, 1.0,
        vbar_bid=-1033.0 / 30.0, vbar_ask=-2467.0 / 30.0,
        v2_bid=6256.0**2 / 30.0, v2_ask=4457.0**2 / 30.0, rho=0.07,
    )
    state = (6256.0, 4457.0)
    _, _, rows = _survival_fixture("calibrated drifted", citi, state, (30.0,),
                                   2 * n_mid, seed=20240805)
    t, s_hat, se = rows[0]
    print(f"  t=30: quadrature={duration_survival_drifted(30.0, *state, citi):.6f} "
          f"mc={s_hat:.6f}+-{se:.6f}")

    # --- 6. agent-mix pair correlation at (0.2, 0.3, 0.5)
    spec = AgentMixSpec(0.2, 0.3, 0.5, Dist("exponential", mean=1.0),
                        Dist("constant", value=1.0))
    pairs = agent_pair_table(spec, n_mid, 20240806)
    num = np.mean(pairs[:, 0] * pairs[:, 1])
    den = math.sqrt(np.mean(pairs[:, 0] ** 2) * np.mean(pairs[:, 1] ** 2))
    _, rho_lit = agent_literal_moments(0.2, 0.3, 0.5, 1.0, 1.0)
    print(f"[agent rho] uncentered pair corr at {n_mid:.0e} = {num / den:.6f} "
          f"(flow formula -1/3; literal variant {rho_lit:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
