"""Tests for the event-driven book state machine and the regulating map."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lobdiff.book import (
    ASK,
    ASK_DEPLETED,
    BID,
    BID_DEPLETED,
    BookState,
    OrderEvent,
    ReinitRule,
    exponential_reinit,
    geometric_reinit,
    price_from_hits,
    regulate,
    replay,
)

SEED = 20240817


def fixed_reinit(b_up, a_up, b_down=None, a_down=None):
    """IID rule with deterministic draws, for exact-value tests."""
    if b_down is None:
        b_down, a_down = b_up, a_up
    return ReinitRule(
        variant="iid",
        sampler_up=lambda rng: (b_up, a_up),
        sampler_down=lambda rng: (b_down, a_down),
    )


def one_event(book, time, side, delta, rule, rng):
    """The book after one event, run through `replay` in columnar form."""
    path, prices = replay(([time], [int(side == ASK)], [delta]), book, rule, rng)
    q_bid, q_ask = path.samples[-1, 1:].tolist()
    return BookState(int(prices.price_ticks[-1]), book.tick, q_bid, q_ask)


# ---------------------------------------------------------------------------
# One event through replay


def test_apply_event_depletes_nothing_on_interior_move():
    book = BookState(bid_price_ticks=100, tick=0.01, q_bid=5.0, q_ask=3.0)
    rng = np.random.default_rng(SEED)
    rule = exponential_reinit(2.0, 2.0)

    book = one_event(book, 0.5, ASK, -2.0, rule, rng)
    assert (book.q_bid, book.q_ask) == (5.0, 1.0)
    assert book.bid_price_ticks == 100

    book = one_event(book, 0.7, BID, 4.0, rule, rng)
    assert (book.q_bid, book.q_ask) == (9.0, 1.0)
    assert book.bid_price_ticks == 100


def test_apply_event_ask_depletion_moves_price_up_and_redraws_both():
    book = BookState(bid_price_ticks=100, tick=0.01, q_bid=5.0, q_ask=3.0)
    rule = fixed_reinit(7.0, 11.0, b_down=2.0, a_down=4.0)
    rng = np.random.default_rng(SEED)

    # A sell-side hit of exactly the queue is a depletion (q + delta == 0).
    book = one_event(book, 1.0, ASK, -3.0, rule, rng)
    assert book.bid_price_ticks == 101
    assert (book.q_bid, book.q_ask) == (7.0, 11.0)


def test_apply_event_bid_depletion_moves_price_down():
    book = BookState(bid_price_ticks=100, tick=0.01, q_bid=5.0, q_ask=3.0)
    rule = fixed_reinit(7.0, 11.0, b_down=2.0, a_down=4.0)
    rng = np.random.default_rng(SEED)

    book = one_event(book, 1.0, BID, -8.0, rule, rng)
    assert book.bid_price_ticks == 99
    assert (book.q_bid, book.q_ask) == (2.0, 4.0)


def test_depleting_event_is_consumed_whole():
    # An oversized market order does not push its residual into the next
    # price level: the redrawn state is the sampler's output, independent of
    # how far past zero the event went.
    rule = fixed_reinit(7.0, 11.0)
    rng = np.random.default_rng(SEED)
    shallow = one_event(BookState(0, 0.01, 5.0, 3.0), 1.0, ASK, -3.0, rule, rng)
    deep = one_event(BookState(0, 0.01, 5.0, 3.0), 1.0, ASK, -300.0, rule, rng)
    assert (shallow.q_bid, shallow.q_ask) == (deep.q_bid, deep.q_ask) == (7.0, 11.0)


def test_pegged_reinit_carries_surviving_queue():
    rule = ReinitRule(
        variant="pegged",
        sampler_up=lambda rng: (1.0, 2.0),
        sampler_down=lambda rng: (3.0, 4.0),
        pegged_beta_bid=0.5,
        pegged_beta_ask=0.25,
    )
    rng = np.random.default_rng(SEED)

    # Price up: half the standing bid queue follows the quote.
    book = one_event(BookState(0, 0.01, q_bid=8.0, q_ask=1.0), 1.0, ASK, -1.0, rule, rng)
    assert (book.q_bid, book.q_ask) == (1.0 + 0.5 * 8.0, 2.0)

    # Price down: a quarter of the standing ask queue follows.
    book = one_event(BookState(0, 0.01, q_bid=1.0, q_ask=8.0), 1.0, BID, -1.0, rule, rng)
    assert (book.q_bid, book.q_ask) == (3.0, 4.0 + 0.25 * 8.0)


def test_pegged_reinit_ignores_overshoot_of_depleted_queue():
    # The depleted coordinate enters through its positive part only, so an
    # overshooting order cannot leak a negative contribution.
    rule = ReinitRule(
        variant="pegged",
        sampler_up=lambda rng: (1.0, 2.0),
        sampler_down=lambda rng: (1.0, 2.0),
        pegged_beta_bid=0.9,
        pegged_beta_ask=0.9,
    )
    rng = np.random.default_rng(SEED)
    book = one_event(BookState(0, 0.01, q_bid=8.0, q_ask=1.0), 1.0, ASK, -50.0, rule, rng)
    assert (book.q_bid, book.q_ask) == (1.0 + 0.9 * 8.0, 2.0)


def test_general_reinit_uses_pre_state():
    def g(pre, eps):
        return (eps[0] + 0.1 * max(pre[0], 0.0), eps[1] + 0.1 * max(pre[1], 0.0))

    rule = ReinitRule(
        variant="general",
        sampler_up=lambda rng: (1.0, 1.0),
        sampler_down=lambda rng: (1.0, 1.0),
        g=g,
    )
    rng = np.random.default_rng(SEED)
    book = one_event(BookState(0, 0.01, q_bid=6.0, q_ask=2.0), 1.0, ASK, -2.0, rule, rng)
    assert_allclose((book.q_bid, book.q_ask), (1.6, 1.0))


def test_reinit_rejects_nonpositive_draws():
    rule = fixed_reinit(0.0, 1.0)
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValueError, match="positive"):
        one_event(BookState(0, 0.01, 1.0, 1.0), 1.0, ASK, -1.0, rule, rng)


def test_order_event_validation():
    with pytest.raises(ValueError):
        OrderEvent(-1.0, BID, 1.0)
    with pytest.raises(ValueError):
        OrderEvent(0.0, "mid", 1.0)
    with pytest.raises(ValueError):
        OrderEvent(0.0, BID, 0.0)


def test_book_state_validation():
    with pytest.raises(ValueError):
        BookState(0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BookState(0, 0.01, -1.0, 1.0)
    assert BookState(7, 0.01, 1.0, 1.0).ask_price_ticks == 8


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("field", ["bid_price_ticks", "tick", "q_bid", "q_ask"])
def test_book_state_rejects_non_finite(field):
    # NaN passes every `< 0` check; a NaN or infinite queue must not reach replay
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match=f"{field} must be"):
            BookState(**{"bid_price_ticks": 0, "tick": 0.01, "q_bid": 1.0, "q_ask": 1.0, field: bad})


@pytest.mark.parametrize("field", ["pegged_beta_bid", "pegged_beta_ask"])
@pytest.mark.parametrize("variant", ["iid", "pegged"])
def test_reinit_rule_rejects_non_finite_betas(field, variant):
    def draw(rng):
        return (1.0, 1.0)

    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="pegged betas"):
            ReinitRule(variant=variant, sampler_up=draw, sampler_down=draw, **{field: bad})


@pytest.mark.parametrize("factory", [exponential_reinit, geometric_reinit])
@pytest.mark.parametrize("field", ["mean_bid", "mean_ask"])
def test_reinit_factories_reject_bad_means_when_built(factory, field):
    # Refused when the rule is built, not at the first depletion's draw
    for bad in (*NON_FINITE, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"{field} must be"):
            factory(**{"mean_bid": 2.0, "mean_ask": 2.0, field: bad})
    if factory is geometric_reinit:
        # p = 1 / mean must not exceed 1
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            factory(**{"mean_bid": 2.0, "mean_ask": 2.0, field: 0.5})
        rule = factory(**{"mean_bid": 2.0, "mean_ask": 2.0, field: 1.0})
        assert 1.0 in rule.sampler_up(np.random.default_rng(SEED))


# ---------------------------------------------------------------------------
# regulate: brute-force oracle


def regulate_bruteforce(times, values, rule, rng):
    """Segment-rescan reference for `regulate`.

    After each jump, re-add the raw increments (measured from the jump
    sample) to the post-jump state and scan forward for the next exit.
    Quadratic and obvious, for cross-checking the production fold.
    """
    values = np.asarray(values, dtype=float)
    n = len(times)
    out = values.copy()
    jumps = []
    start = 0
    state = values[0].copy()
    while True:
        hit = None
        for i in range(start + 1, n):
            cand = state + (values[i] - values[start])
            if cand[0] <= 0 or cand[1] <= 0:
                hit = i
                break
            out[i] = cand
        if hit is None:
            break
        qb, qa = state + (values[hit] - values[start])
        if qb <= 0 and qa <= 0:
            side = ASK_DEPLETED if qa <= qb else BID_DEPLETED
        elif qa <= 0:
            side = ASK_DEPLETED
        else:
            side = BID_DEPLETED
        new = rule.draw(side, qb, qa, rng)
        jumps.append((float(times[hit]), side, new))
        out[hit] = new
        state = np.asarray(new)
        start = hit
    return out, jumps


@pytest.mark.parametrize("case_seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_regulate_matches_bruteforce(case_seed):
    rng = np.random.default_rng(SEED + case_seed)
    n = 400
    times = np.cumsum(rng.exponential(0.1, size=n))
    # A down-drifted walk so the path exits the quadrant many times.
    steps = rng.normal(loc=-0.05, scale=1.0, size=(n, 2))
    values = np.cumsum(steps, axis=0) + np.array([4.0, 4.0])
    values[0] = np.abs(values[0]) + 0.5
    rule = exponential_reinit(3.0, 3.0)

    got = regulate(times, values, rule, np.random.default_rng(99 + case_seed))
    want_vals, want_jumps = regulate_bruteforce(
        times, values, rule, np.random.default_rng(99 + case_seed)
    )

    assert len(got.jumps) == len(want_jumps)
    assert len(got.jumps) > 0  # the drift must actually generate exits
    for j, (tau, side, post) in zip(got.jumps, want_jumps):
        assert j.tau == tau
        assert j.side == side
        assert_allclose(j.post_state, post, rtol=1e-12)
    assert_allclose(got.samples[:, 1:], want_vals, rtol=1e-9, atol=1e-12)
    assert np.all(got.samples[:, 1:] > 0)


def test_regulate_tie_goes_to_ask_side():
    times = [0.0, 1.0]
    values = np.array([[2.0, 2.0], [-1.0, -1.0]])
    rule = fixed_reinit(5.0, 6.0, b_down=7.0, a_down=8.0)
    path = regulate(times, values, rule, np.random.default_rng(SEED))
    assert len(path.jumps) == 1
    assert path.jumps[0].side == ASK_DEPLETED
    assert path.jumps[0].post_state == (5.0, 6.0)


def test_regulate_deeper_breach_wins_when_both_down():
    times = [0.0, 1.0]
    values = np.array([[2.0, 2.0], [-3.0, -1.0]])  # bid 5 below, ask 3 below
    rule = fixed_reinit(5.0, 6.0, b_down=7.0, a_down=8.0)
    path = regulate(times, values, rule, np.random.default_rng(SEED))
    assert path.jumps[0].side == BID_DEPLETED
    assert path.jumps[0].post_state == (7.0, 8.0)


def test_regulate_checks_regulated_not_raw_path():
    # The raw path dips and recovers; after the first jump resets the level,
    # later raw-negative samples need not be exits of the regulated path.
    times = np.arange(4.0)
    values = np.array([[1.0, 5.0], [-0.5, 5.0], [-0.4, 5.0], [0.2, 5.0]])
    rule = fixed_reinit(10.0, 10.0)
    path = regulate(times, values, rule, np.random.default_rng(SEED))
    # One jump at t=1; afterwards the regulated bid sits near 10 and the
    # raw dips (still negative) no longer breach.
    assert [j.tau for j in path.jumps] == [1.0]
    assert_allclose(path.q_bid, [1.0, 10.0, 10.1, 10.7])


def test_regulate_rejects_bad_start_and_shapes():
    rule = exponential_reinit(1.0, 1.0)
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValueError, match="start"):
        regulate([0.0], np.array([[0.0, 1.0]]), rule, rng)
    with pytest.raises(ValueError, match="non-decreasing"):
        regulate([0.0, 1.0, 0.5], np.ones((3, 2)), rule, rng)
    with pytest.raises(ValueError):
        regulate([0.0], np.ones((1, 3)), rule, rng)


# ---------------------------------------------------------------------------
# replay


def _poissonish_events(rng, n, unit=1.0):
    times = np.cumsum(rng.exponential(0.05, size=n))
    sides = rng.integers(0, 2, size=n).astype(np.int8)
    signs = np.where(rng.random(n) < 0.55, -1.0, 1.0)  # depletion-prone
    deltas = signs * unit
    return times, sides, deltas


def test_replay_matches_regulate_on_cumulative_path():
    # Folding events one at a time must agree with regulating the cumulative
    # net-flow path sampled at event times (two independent code paths).
    rng = np.random.default_rng(SEED)
    times, sides, deltas = _poissonish_events(rng, 3000)
    initial = BookState(0, 0.01, 4.0, 4.0)
    rule = geometric_reinit(4.0, 4.0)

    path, prices = replay((times, sides, deltas), initial, rule, np.random.default_rng(7))

    flow = np.zeros((len(times) + 1, 2))
    flow[1:, 0] = np.cumsum(np.where(sides == 0, deltas, 0.0))
    flow[1:, 1] = np.cumsum(np.where(sides == 1, deltas, 0.0))
    flow[:, 0] += initial.q_bid
    flow[:, 1] += initial.q_ask
    reg = regulate(
        np.concatenate([[0.0], times]), flow, rule, np.random.default_rng(7)
    )

    assert len(path.jumps) == len(reg.jumps) > 50
    assert_array_equal(path.samples, reg.samples)
    for a, b in zip(path.jumps, reg.jumps):
        assert (a.tau, a.side, a.post_state) == (b.tau, b.side, b.post_state)

    # Price changes are exactly the jumps, one tick each.
    assert len(prices.steps) == len(path.jumps) + 1
    diffs = np.diff(prices.price_ticks)
    assert set(np.abs(diffs)) == {1}

    # Independent reconstruction from the jump record.
    rebuilt = price_from_hits(path, initial.bid_price_ticks)
    assert_array_equal(rebuilt.steps[1:], prices.steps[1:])
    assert rebuilt.price_ticks[0] == initial.bid_price_ticks


def test_replay_integer_sizes_are_bitwise_exact():
    # With integer order sizes and integer-valued reinitialization draws,
    # every stored queue is an exact integer and every interior increment
    # reproduces its event delta bit for bit.
    rng = np.random.default_rng(SEED + 1)
    times, sides, deltas = _poissonish_events(rng, 5000, unit=1.0)
    deltas = deltas * rng.integers(1, 6, size=len(deltas))  # sizes 1..5
    initial = BookState(0, 0.01, 6.0, 6.0)
    rule = geometric_reinit(5.0, 5.0)

    path, _ = replay((times, sides, deltas), initial, rule, np.random.default_rng(11))
    q = path.samples[:, 1:]
    assert np.all(q == np.round(q))
    assert np.all(q > 0)

    jump_times = {j.tau for j in path.jumps}
    for i in range(len(times)):
        if times[i] in jump_times:
            continue
        col = 1 if sides[i] == 0 else 2
        inc = path.samples[i + 1, col] - path.samples[i, col]
        assert inc == deltas[i]  # bitwise, no tolerance
        other = 2 if col == 1 else 1
        assert path.samples[i + 1, other] == path.samples[i, other]


def test_replay_accepts_event_objects_and_columns_equally():
    rng = np.random.default_rng(SEED + 2)
    times, sides, deltas = _poissonish_events(rng, 200)
    initial = BookState(0, 0.01, 3.0, 3.0)
    rule = geometric_reinit(3.0, 3.0)

    as_cols, _ = replay((times, sides, deltas), initial, rule, np.random.default_rng(3))
    events = [
        OrderEvent(float(t), BID if s == 0 else ASK, float(d))
        for t, s, d in zip(times, sides, deltas)
    ]
    as_objs, _ = replay(events, initial, rule, np.random.default_rng(3))
    assert_array_equal(as_cols.samples, as_objs.samples)


def test_replay_validates_input():
    initial = BookState(0, 0.01, 3.0, 3.0)
    rule = exponential_reinit(1.0, 1.0)
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValueError, match="sorted"):
        replay(
            (np.array([1.0, 0.5]), np.array([0, 1]), np.array([1.0, 1.0])),
            initial,
            rule,
            rng,
        )
    with pytest.raises(ValueError, match="zero delta"):
        replay(
            (np.array([0.5, 1.0]), np.array([0, 1]), np.array([1.0, 0.0])),
            initial,
            rule,
            rng,
        )
    with pytest.raises(ValueError, match="side"):
        replay(
            (np.array([0.5]), np.array([2]), np.array([1.0])),
            initial,
            rule,
            rng,
        )
    with pytest.raises(ValueError, match="positive"):
        replay([], BookState(0, 0.01, 0.0, 1.0), rule, rng)


def test_replay_empty_stream_returns_initial_only():
    initial = BookState(42, 0.01, 3.0, 3.0)
    rule = exponential_reinit(1.0, 1.0)
    path, prices = replay([], initial, rule, np.random.default_rng(SEED))
    assert path.samples.shape == (1, 3)
    assert_array_equal(path.samples[0], [0.0, 3.0, 3.0])
    assert path.jumps == ()
    assert prices.price_ticks.tolist() == [42]


def test_replay_is_deterministic_in_seed():
    rng = np.random.default_rng(SEED + 3)
    stream = _poissonish_events(rng, 1000)
    initial = BookState(0, 0.01, 4.0, 4.0)
    rule = exponential_reinit(2.5, 2.5)
    p1, s1 = replay(stream, initial, rule, np.random.default_rng(123))
    p2, s2 = replay(stream, initial, rule, np.random.default_rng(123))
    assert_array_equal(p1.samples, p2.samples)
    assert_array_equal(s1.steps, s2.steps)
