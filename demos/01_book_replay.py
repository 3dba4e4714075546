"""Replay a stream of order events through the regulated two-queue book.

The book tracks the sizes at the best bid and ask. Limit orders add to a
queue, market orders and cancellations drain it; when a queue empties, the
price moves one tick against that side and both queues are redrawn from the
reinitialization rule. This script generates a memoryless flow, replays it,
and prints what the regulated path looks like.

Run:  python3 demos/01_book_replay.py
"""

import numpy as np

from lobdiff.book import BookState, exponential_reinit, replay
from lobdiff.flows import PoissonFlowSpec, gen_poisson_flow

SEED = 42

# Per side: limit orders at rate 1.2, market orders 1.0, cancellations 0.4.
# Arrivals drain each queue at net rate 0.2, so price moves keep coming.
spec = PoissonFlowSpec(lambda_limit=1.2, mu_market=1.0, theta_cancel=0.4)
print(f"flow: per-side event rate {spec.total_rate}, P[+1] = {spec.p_positive:.3f}")

times, sides, deltas = gen_poisson_flow(spec, horizon=600.0, seed=SEED)
print(f"generated {len(times)} events over 600 time units")

initial = BookState(bid_price_ticks=1000, tick=0.01, q_bid=5.0, q_ask=5.0)
rule = exponential_reinit(mean_bid=5.0, mean_ask=5.0)
path, prices = replay((times, sides, deltas), initial, rule, np.random.default_rng(SEED))

q = path.samples[:, 1:]
print(f"\nregulated path: {len(path.samples)} samples, all positive: {bool(np.all(q > 0))}")
print(f"queue size range: bid [{q[:, 0].min():.4f}, {q[:, 0].max():.2f}], "
      f"ask [{q[:, 1].min():.4f}, {q[:, 1].max():.2f}]")

# Every depletion is exactly one price change of one tick.
up = sum(1 for j in path.jumps if j.side == "ask_depleted")
down = len(path.jumps) - up
print(f"\nprice changes: {len(path.jumps)} ({up} up, {down} down)")
print(f"price: {initial.bid_price_ticks} -> {int(prices.price_ticks[-1])} ticks")

print("\nfirst five depletions:")
for j in path.jumps[:5]:
    print(f"  t = {j.tau:8.2f}  {j.side:>13}  book redrawn to "
          f"({j.post_state[0]:.2f}, {j.post_state[1]:.2f})")

# Durations between consecutive price moves, the object the analytics
# modules study in the diffusion limit.
taus = np.array([j.tau for j in path.jumps])
gaps = np.diff(taus)
print(f"\ninter-move durations: mean {gaps.mean():.2f}, median {np.median(gaps):.2f}, "
      f"max {gaps.max():.2f}")
