"""Event-driven bid/ask queue state machine with jump reinitialization.

The reduced order book tracked here is a triple (bid price in ticks, bid queue
size, ask queue size), with the spread pinned at one tick so the ask price is
always ``bid_price_ticks + 1``. Each order-book event adds a signed size to one
queue: positive deltas are limit orders, negative deltas are market orders or
cancellations. When an event would take its queue to zero or below, that queue
is *depleted*: the price moves one tick (ask depletion -> up, bid depletion ->
down), the depleting event is consumed entirely (no residual carries into the
next price level), and both queues are redrawn from a `ReinitRule`.

The same boundary behavior, applied to an arbitrary piecewise-constant planar
path instead of a live book, is the regulating map implemented by `regulate`:
follow the input increments inside the open positive quadrant and, whenever the
path attempts to exit, jump to a fresh interior point drawn by the rule. The
price path is a pure function of the jump record: +1 tick per ask-side jump,
-1 per bid-side jump (`price_from_hits`).

Guarantees
----------
- No output sample ever has a negative queue; both queues are strictly
  positive immediately after every jump, and the state (0, 0) never appears.
- Between consecutive jumps, increments of the regulated path equal the
  increments of the input (same floating-point additions; exact to the last
  bit whenever sizes and reinitialization draws are integer-valued).
- One jump <=> one price change of exactly one tick, on every input.
- Identical (events, initial state, rule, seed) give identical outputs.

Queue sizes are real-valued rather than integer so the same machinery serves
both raw event replay and rescaled (size / sqrt(n)) inputs.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

BID = "bid"
ASK = "ask"

#: Jump-side labels. Ask depletion raises the price; bid depletion lowers it.
ASK_DEPLETED = "ask_depleted"
BID_DEPLETED = "bid_depleted"

#: ReinitRule variants.
IID = "iid"
PEGGED = "pegged"
GENERAL = "general"


@dataclass(frozen=True)
class OrderEvent:
    """One order-book event: a signed size change of one best-quote queue."""

    time: float
    side: str
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        if self.side not in (BID, ASK):
            raise ValueError(f"side must be {BID!r} or {ASK!r}, got {self.side!r}")
        if not math.isfinite(self.delta) or self.delta == 0:
            raise ValueError(f"delta must be finite and nonzero, got {self.delta}")


@dataclass(frozen=True)
class BookState:
    """Best-quote book state: bid price in ticks and the two queue sizes.

    The ask price is implicitly ``bid_price_ticks + 1`` (one-tick spread).
    """

    bid_price_ticks: int
    tick: float
    q_bid: float
    q_ask: float

    def __post_init__(self):
        if not isinstance(self.bid_price_ticks, numbers.Integral):
            raise ValueError(f"bid_price_ticks must be an integer, got {self.bid_price_ticks}")
        for name in ("tick", "q_bid", "q_ask"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def ask_price_ticks(self):
        return self.bid_price_ticks + 1


def _validate_pair(pair, what):
    b, a = float(pair[0]), float(pair[1])
    if not (b > 0 and a > 0 and math.isfinite(b) and math.isfinite(a)):
        raise ValueError(f"{what} must be a strictly positive finite pair, got {pair}")
    return b, a


@dataclass(frozen=True)
class ReinitRule:
    """How both queues are redrawn after a depletion.

    variant "iid"
        New state is a fresh draw: `sampler_up(rng)` after an ask depletion
        (price increase), `sampler_down(rng)` after a bid depletion. Samplers
        must return strictly positive pairs (q_bid, q_ask).
    variant "pegged"
        A fraction of the *surviving* queue follows the price to the new
        level: after a price increase the new state is
        (eps_b + pegged_beta_bid * q_bid_pre, eps_a); after a decrease it is
        (eps_b, eps_a + pegged_beta_ask * q_ask_pre), with (eps_b, eps_a)
        drawn from the matching sampler. A depleted coordinate contributes
        nothing (its positive part is zero).
    variant "general"
        New state is ``g((q_bid_pre, q_ask_pre), eps)`` with eps drawn from
        the matching sampler; `g` must return a strictly positive pair and
        should be bounded below by a fixed multiple of min(eps) so that
        reinitializations cannot accumulate on the axes.

    Both pegged betas must lie in [0, 1) whatever the variant, so a rule
    never holds a value it would refuse if it read it.
    """

    variant: str = IID
    sampler_up: object = None
    sampler_down: object = None
    pegged_beta_bid: float = 0.0
    pegged_beta_ask: float = 0.0
    g: object = None

    def __post_init__(self):
        if self.variant not in (IID, PEGGED, GENERAL):
            raise ValueError(f"unknown reinit variant {self.variant!r}")
        if self.sampler_up is None or self.sampler_down is None:
            raise ValueError("both sampler_up and sampler_down are required")
        for beta in (self.pegged_beta_bid, self.pegged_beta_ask):
            if not (0 <= beta < 1):
                raise ValueError(f"pegged betas must lie in [0, 1), got {beta}")
        if self.variant == GENERAL and self.g is None:
            raise ValueError("variant 'general' requires g")

    def draw(self, side, pre_bid, pre_ask, rng):
        """Redraw both queues after a depletion of `side`.

        `side` is ASK_DEPLETED or BID_DEPLETED; (pre_bid, pre_ask) is the state
        just before the jump (the depleted coordinate may be <= 0 and is
        ignored by the pegged variant). Returns a strictly positive pair.
        """
        sampler = self.sampler_up if side == ASK_DEPLETED else self.sampler_down
        eps = sampler(rng)
        eps_b, eps_a = _validate_pair(eps, "reinitialization draw")
        if self.variant == IID:
            new = (eps_b, eps_a)
        elif self.variant == PEGGED:
            if side == ASK_DEPLETED:
                new = (eps_b + self.pegged_beta_bid * max(pre_bid, 0.0), eps_a)
            else:
                new = (eps_b, eps_a + self.pegged_beta_ask * max(pre_ask, 0.0))
        else:
            new = self.g((pre_bid, pre_ask), (eps_b, eps_a))
        return _validate_pair(new, "post-jump state")


def exponential_reinit(mean_bid, mean_ask):
    """IID rule with independent exponential queue draws (same law both sides).

    Both means must be finite and > 0.
    """
    for name, mean in (("mean_bid", mean_bid), ("mean_ask", mean_ask)):
        if not (mean > 0 and math.isfinite(mean)):
            raise ValueError(f"{name} must be > 0 and finite, got {mean}")

    def sampler(rng):
        return (rng.exponential(mean_bid), rng.exponential(mean_ask))

    return ReinitRule(variant=IID, sampler_up=sampler, sampler_down=sampler)


def geometric_reinit(mean_bid, mean_ask):
    """IID rule drawing integer-valued queues >= 1 (geometric on {1, 2, ...}).

    Both means must be finite and >= 1, so that p = 1 / mean lies in (0, 1].
    """
    for name, mean in (("mean_bid", mean_bid), ("mean_ask", mean_ask)):
        if not (mean >= 1 and math.isfinite(mean)):
            raise ValueError(f"{name} must be >= 1 and finite for a geometric rule, got {mean}")
    p_b = 1.0 / mean_bid
    p_a = 1.0 / mean_ask

    def sampler(rng):
        return (float(rng.geometric(p_b)), float(rng.geometric(p_a)))

    return ReinitRule(variant=IID, sampler_up=sampler, sampler_down=sampler)


@dataclass(frozen=True)
class Jump:
    """One boundary jump: when, which side depleted, and the redrawn state."""

    tau: float
    side: str
    post_state: tuple


@dataclass(frozen=True)
class RegulatedPath:
    """A path confined to the positive quadrant by jump reinitialization.

    samples is an (n, 3) float array of rows (time, q_bid, q_ask); the stored
    value at a jump time is the post-jump state. jumps records (tau, side,
    post_state) in time order.
    """

    samples: np.ndarray
    jumps: tuple = field(default_factory=tuple)

    @property
    def times(self):
        return self.samples[:, 0]

    @property
    def q_bid(self):
        return self.samples[:, 1]

    @property
    def q_ask(self):
        return self.samples[:, 2]


@dataclass(frozen=True)
class PricePath:
    """Piecewise-constant price in ticks; steps rows are (time, price_ticks)."""

    steps: np.ndarray

    @property
    def times(self):
        return self.steps[:, 0]

    @property
    def price_ticks(self):
        return self.steps[:, 1].astype(np.int64)


def regulate(times, values, rule, rng):
    """Regulate a sampled planar path into the positive quadrant.

    Parameters
    ----------
    times : (n,) array of non-decreasing sample times.
    values : (n, 2) array, the unregulated path sampled at `times`
        (column 0 = bid coordinate, column 1 = ask). The first sample must be
        strictly inside the positive quadrant.
    rule, rng : reinitialization rule and the generator feeding its draws.

    The output follows the input increments exactly between jumps. A sample
    whose bid or ask coordinate is <= 0 triggers a jump at that sample time:
    the side is whichever coordinate reached <= 0 (ask wins the measure-zero
    tie, deterministically), and the stored sample is the redrawn state.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != 2 or len(times) != len(values):
        raise ValueError("values must be (n, 2) with one row per time")
    if len(times) == 0:
        raise ValueError("empty path")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    b0, a0 = values[0]
    if not (b0 > 0 and a0 > 0):
        raise ValueError(f"path must start strictly inside the quadrant, got ({b0}, {a0})")

    out = np.empty_like(values)
    out[0] = values[0]
    jumps = []
    off_b = 0.0
    off_a = 0.0
    for i in range(1, len(times)):
        qb = values[i, 0] + off_b
        qa = values[i, 1] + off_a
        if qa <= 0 or qb <= 0:
            if qa <= 0 and qb <= 0:
                # Both down at the same sample: charge the deeper breach,
                # exact ties to the ask side.
                side = ASK_DEPLETED if qa <= qb else BID_DEPLETED
            else:
                side = ASK_DEPLETED if qa <= 0 else BID_DEPLETED
            new_b, new_a = rule.draw(side, qb, qa, rng)
            jumps.append(Jump(float(times[i]), side, (new_b, new_a)))
            off_b = new_b - values[i, 0]
            off_a = new_a - values[i, 1]
            qb, qa = new_b, new_a
        out[i, 0] = qb
        out[i, 1] = qa
    samples = np.column_stack([times, out])
    return RegulatedPath(samples=samples, jumps=tuple(jumps))


def replay(events, initial, rule, rng):
    """Run an event stream through the book, one event at a time.

    Each event adds its delta to its queue. An event that takes its queue to
    zero or below is consumed whole: the price moves one tick against the
    depleted side and both queues are redrawn by `rule`.

    Parameters
    ----------
    events : columnar (times, sides, deltas) triple, sorted by time, with
        sides coded 0 = bid, 1 = ask; a sequence of OrderEvent is accepted too.
    initial : BookState (its queues are strictly positive by construction).
    rule, rng : reinitialization rule and generator.

    Returns (RegulatedPath, PricePath). The regulated path has the initial
    state at time 0.0 followed by one sample per event; the price path starts
    at the initial bid price and records one step per price change. The jump
    count always equals the price-change count.
    """
    times, sides, deltas = _as_columns(events)
    jumps = []
    price_steps = [(0.0, float(initial.bid_price_ticks))]
    out_bid = [initial.q_bid]
    out_ask = [initial.q_ask]
    q_bid = initial.q_bid
    q_ask = initial.q_ask
    ticks = initial.bid_price_ticks
    # Python floats: the same IEEE additions as on numpy scalars, far cheaper.
    for t, s, delta in zip(times.tolist(), sides.tolist(), deltas.tolist()):
        if s == 0:
            q = q_bid + delta
            if q > 0:
                q_bid = q
            else:
                q_bid, q_ask = rule.draw(BID_DEPLETED, q, q_ask, rng)
                ticks -= 1
                jumps.append(Jump(t, BID_DEPLETED, (q_bid, q_ask)))
                price_steps.append((t, float(ticks)))
        else:
            q = q_ask + delta
            if q > 0:
                q_ask = q
            else:
                q_bid, q_ask = rule.draw(ASK_DEPLETED, q_bid, q, rng)
                ticks += 1
                jumps.append(Jump(t, ASK_DEPLETED, (q_bid, q_ask)))
                price_steps.append((t, float(ticks)))
        out_bid.append(q_bid)
        out_ask.append(q_ask)

    samples = np.column_stack([np.concatenate([[0.0], times]), out_bid, out_ask])
    path = RegulatedPath(samples=samples, jumps=tuple(jumps))
    prices = PricePath(steps=np.array(price_steps))
    return path, prices


def price_from_hits(path, start_ticks):
    """Price path implied by a RegulatedPath's jump record alone.

    The price at time t is ``start_ticks + #(ask jumps <= t) - #(bid jumps <= t)``.
    """
    steps = [(path.times[0] if len(path.samples) else 0.0, float(start_ticks))]
    ticks = int(start_ticks)
    for j in path.jumps:
        ticks += 1 if j.side == ASK_DEPLETED else -1
        steps.append((j.tau, float(ticks)))
    return PricePath(steps=np.array(steps))


def _as_columns(events):
    """Normalize and validate an event stream: (times, sides01, deltas) arrays.

    Takes a (times, sides, deltas) triple with sides coded 0 = bid, 1 = ask,
    or a sequence of OrderEvent. Rejects other side codes, zero or non-finite
    deltas, negative or non-finite times, and times out of order.
    """
    if isinstance(events, tuple) and len(events) == 3 and not isinstance(events[0], OrderEvent):
        times, sides, deltas = events
    else:
        times = [e.time for e in events]
        sides = [e.side == ASK for e in events]
        deltas = [e.delta for e in events]
    times = np.asarray(times, dtype=float)
    sides = np.asarray(sides)
    deltas = np.asarray(deltas, dtype=float)
    if np.any((sides != 0) & (sides != 1)):
        raise ValueError("sides must be coded 0 (bid) or 1 (ask)")
    sides = sides.astype(np.int8)
    if np.any(deltas == 0):
        k = int(np.argmax(deltas == 0))
        raise ValueError(f"zero delta at event index {k}")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("event deltas must be finite")
    if np.any(times < 0) or not np.all(np.isfinite(times)):
        raise ValueError("event times must be finite and >= 0")
    if np.any(np.diff(times) < 0):
        k = int(np.argmax(np.diff(times) < 0)) + 1
        raise ValueError(f"events not sorted by time (first regression at index {k})")
    return times, sides, deltas


def events_to_list(times, sides, deltas):
    """Columnar stream -> list of OrderEvent."""
    times, sides, deltas = _as_columns((times, sides, deltas))
    names = (BID, ASK)
    return [
        OrderEvent(t, names[s], d)
        for t, s, d in zip(times.tolist(), sides.tolist(), deltas.tolist())
    ]
