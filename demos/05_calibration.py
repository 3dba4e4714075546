"""From an event tape to diffusion parameters, and back to predictions.

The estimation module consumes a two-column order flow (timestamps and
signed sizes per side) and produces everything the analytics need: arrival
rates, size moments with a long-run variance correction, the cross-side
flow correlation, and a Hill exponent for the size tails. This script
simulates a known flow, estimates, compares, and then feeds the fitted
parameters into the price-move analytics.

Run:  python3 demos/05_calibration.py
"""

import numpy as np

from lobdiff.analytics import duration_tail_index, prob_up
from lobdiff.diffusion import DiffusionParams
from lobdiff.estimation import (
    FlowSample,
    estimate_rates,
    estimate_rho,
    estimate_size_moments,
    hill_estimator,
    scaled_params,
    variance_ratio_table,
)
from lobdiff.flows import AgentMixSpec, gen_agent_flow

SEED = 3

# Ground truth: a three-agent mix (20% market-only, 30% limit-only, 50%
# mixed traders splitting volume half and half). The mix couples the two
# sides: its flow correlation is exactly -1/3.
spec = AgentMixSpec(m=0.2, l=0.3, gamma=0.5)
times, sides, deltas = gen_agent_flow(spec, horizon=200_000.0, seed=SEED)
sample = FlowSample.from_arrays(times, sides, deltas)
print(f"simulated {len(times)} events "
      f"({len(sample.bid_times)} bid, {len(sample.ask_times)} ask)\n")

rate_b, rate_a = estimate_rates(sample)
(vbar_b, v2_b), (vbar_a, v2_a) = estimate_size_moments(sample)
rho = estimate_rho(sample)

print(f"{'parameter':<12} {'estimate':>10} {'std err':>9} {'truth':>9}")
print(f"{'lambda_bid':<12} {rate_b.value:10.4f} {rate_b.std_error:9.4f} {0.75:9.4f}")
print(f"{'lambda_ask':<12} {rate_a.value:10.4f} {rate_a.std_error:9.4f} {0.75:9.4f}")
print(f"{'vbar_bid':<12} {vbar_b.value:10.4f} {vbar_b.std_error:9.4f} {-1 / 15:9.4f}")
print(f"{'v2_bid':<12} {v2_b.value:10.4f} {v2_b.std_error:9.4f} {0.5 - (1 / 15) ** 2:9.4f}")
print(f"{'rho':<12} {rho.value:10.4f} {rho.std_error:9.4f} {-1 / 3:9.4f}")

# The variance-ratio table diagnoses long-range dependence in the sizes:
# var(batch sums) / batch stays at the per-event variance when sizes are
# uncorrelated, and climbs with the batch size when they are not.
print("\nvariance ratios of batched bid sizes (flat ~ uncorrelated):")
for batch, ratio in variance_ratio_table(sample.bid_sizes).rows:
    print(f"  batch {batch:>5}: {ratio:.3f}")

# Tail exponent of the size distribution (reciprocal convention: Pareto
# with exponent a gives 1/a). Unit agent volumes have no tail; mix in
# heavy-tailed sizes to see the estimator work.
heavy = 1.0 + np.random.default_rng(SEED).pareto(2.5, size=len(sample.bid_sizes))
hill = hill_estimator(heavy)
print(f"\nhill exponent on synthetic Pareto(2.5) sizes: "
      f"{hill.value:.4f} +/- {hill.std_error:.4f} (truth 0.4)")

# Re-express the fitted flow per coarse observation window and feed the
# implied diffusion into the analytics.
fitted_full = DiffusionParams(
    rate_b.value, rate_a.value,
    vbar_bid=vbar_b.value, vbar_ask=vbar_a.value,
    v2_bid=v2_b.value, v2_ask=v2_a.value, rho=rho.value,
)
gamma0 = 0.5 * (1 / rate_b.value + 1 / rate_a.value)
scaled = scaled_params(fitted_full, gamma0, gamma1=30.0)
print(f"\nper-30s window: N = {scaled.N:.0f}, "
      f"Lambda diag ({scaled.Lambda[0, 0]:.2f}, {scaled.Lambda[1, 1]:.2f})")

fitted = DiffusionParams(
    rate_b.value, rate_a.value,
    v2_bid=v2_b.value, v2_ask=v2_a.value, rho=rho.value,
)
print("\nfitted-book predictions:")
print(f"  p_up with bid twice the ask: {prob_up(2.0, 1.0, fitted):.4f}")
print(f"  duration tail exponent: {duration_tail_index(fitted):.4f}")
