"""Watching the discrete book converge to its diffusion limit.

Speed time up by a factor n and shrink sizes by sqrt(n): as n grows the
net order flow approaches a correlated Brownian motion, and the regulated
queue path approaches the jump-reinitialized diffusion. This script checks
the first convergence directly (Kolmogorov-Smirnov distances against the
limit Gaussian along an n-ladder) and then compares a rescaled discrete
path with a path of the limit process.

Run:  python3 demos/04_heavy_traffic.py
"""

import numpy as np

from lobdiff.analytics import flow_limit_params
from lobdiff.book import BookState, exponential_reinit, replay
from lobdiff.diffusion import (
    DiffusionParams,
    net_flow_fclt_check,
    rescale_discrete,
    simulate_Q,
)
from lobdiff.flows import PoissonFlowSpec, gen_poisson_flow

SEED = 11

spec = PoissonFlowSpec(lambda_limit=1.5, mu_market=1.0, theta_cancel=0.5)
drift, cov = flow_limit_params(spec)
print(f"flow limit: drift rate {drift}, variance rate {cov[0, 0]} per side\n")

# Once the distance is at the Monte Carlo floor (about 0.04 at 400
# replications), the remaining wiggle is sampling noise; the test is that
# every rung sits below the 5% critical value.
print("rescaled net flow vs limit Gaussian (400 replications per rung):")
print(f"{'n':>6} {'ks_bid':>8} {'ks_ask':>8} {'critical':>9} {'cov err':>8}")
for row in net_flow_fclt_check(spec, [100, 1000, 10_000], reps=400, seed=SEED):
    print(f"{row.n:6d} {row.ks_bid:8.4f} {row.ks_ask:8.4f} "
          f"{row.ks_critical:9.4f} {row.cov_rel_error:8.4f}")

# Now the queues themselves. Simulate the discrete book at n = 2000,
# rescale, and put it side by side with the limit diffusion.
n = 2000
root = np.sqrt(n)
horizon = 2.0
times, sides, deltas = gen_poisson_flow(spec, horizon=n * horizon, seed=SEED)
initial = BookState(0, 1.0, q_bid=1.0 * root, q_ask=1.0 * root)
rule = exponential_reinit(1.0 * root, 1.0 * root)
path, _ = replay((times, sides, deltas), initial, rule, np.random.default_rng(SEED))
scaled = rescale_discrete(path, n)

params = DiffusionParams(
    lambda_bid=spec.total_rate, lambda_ask=spec.total_rate,
    vbar_bid=drift[0] / spec.total_rate, vbar_ask=drift[1] / spec.total_rate,
    v2_bid=cov[0, 0] / spec.total_rate, v2_ask=cov[1, 1] / spec.total_rate,
    rho=0.0,
)
limit = simulate_Q(params, exponential_reinit(1.0, 1.0), (1.0, 1.0),
                   horizon=horizon, seed=SEED)

print(f"\none discrete book at n = {n}, rescaled to a horizon of {horizon}:")
print(f"  {len(path.jumps)} price moves; "
      f"queue mean ({scaled.samples[:, 1].mean():.3f}, {scaled.samples[:, 2].mean():.3f})")
print("one limit-diffusion path over the same horizon:")
print(f"  {len(limit.jumps)} price moves; "
      f"queue mean ({limit.samples[:, 1].mean():.3f}, {limit.samples[:, 2].mean():.3f})")

# Single paths are noisy (exits cluster after each reinitialization), so
# average over a few dozen replications to see the laws line up.
reps = 30
d_moves, d_term = [], []
l_moves, l_term = [], []
for r in range(reps):
    ev = gen_poisson_flow(spec, horizon=n * horizon, seed=1000 + r)
    p_r, _ = replay(ev, initial, rule, np.random.default_rng(1000 + r))
    s_r = rescale_discrete(p_r, n)
    d_moves.append(len(p_r.jumps))
    d_term.append(s_r.samples[-1, 1:])
    q_r = simulate_Q(params, exponential_reinit(1.0, 1.0), (1.0, 1.0),
                     horizon=horizon, step=horizon / 4096, seed=2000 + r)
    l_moves.append(len(q_r.jumps))
    l_term.append(q_r.samples[-1, 1:])

print(f"\nacross {reps} replications:")
print(f"  discrete: {np.mean(d_moves):.2f} moves/path, "
      f"mean terminal queues {np.mean(d_term, axis=0).round(3)}")
print(f"  limit:    {np.mean(l_moves):.2f} moves/path, "
      f"mean terminal queues {np.mean(l_term, axis=0).round(3)}")
print("\nThe acceptance suite sharpens this eyeball check into a")
print("Kolmogorov-Smirnov comparison across hundreds of replications.")
