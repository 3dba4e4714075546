"""Parameter estimation from order-event samples.

Estimators for everything the diffusion limit needs: per-side arrival rates,
size means and long-run variances (marginal variance plus twice the summed
autocovariances), the cross-flow correlation, Pareto tail indices, the
batch-variance linearity diagnostic, and the map onto a coarse observation
scale. All estimators consume a :class:`FlowSample` and return
:class:`ParamEstimate` values carrying first-order standard errors.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .book import ASK, BID, _as_columns
from .diffusion import DiffusionParams, ScaledParams

__all__ = [
    "FlowSample",
    "ParamEstimate",
    "estimate_rates",
    "mean_inter_event_time",
    "estimate_size_moments",
    "estimate_rho",
    "hill_estimator",
    "VarianceRatioTable",
    "variance_ratio_table",
    "scaled_params",
    "estimate_report",
]


@dataclass(frozen=True)
class ParamEstimate:
    """Point estimate with a first-order standard error; lag_cut is the
    autocovariance truncation a long-run estimator used (None elsewhere)."""

    value: float
    std_error: float
    n_used: int
    lag_cut: int | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    def ci95(self):
        h = 1.96 * self.std_error
        return self.value - h, self.value + h


class FlowSample:
    """One session of order events, split by side and held columnar.

    Construct straight from columnar arrays (:meth:`from_arrays`), from one
    merged stream (:meth:`from_events`), or from per-side streams
    (`FlowSample(bid_events, ask_events)`), each validated as `book.replay`
    validates its input. An empty side is allowed but rejects any estimate
    that needs it.
    """

    def __init__(self, bid_events, ask_events):
        self.bid_times, _, self.bid_sizes = _as_columns(bid_events)
        self.ask_times, _, self.ask_sizes = _as_columns(ask_events)

    @classmethod
    def from_events(cls, events):
        """Split one merged stream by side: OrderEvents or a columnar triple."""
        return cls.from_arrays(*_as_columns(events))

    @classmethod
    def from_arrays(cls, times, sides, deltas):
        """Columnar constructor; sides coded 0 = bid, 1 = ask."""
        times, sides, deltas = _as_columns((times, sides, deltas))
        bid, ask = sides == 0, sides == 1
        return cls((times[bid], sides[bid], deltas[bid]), (times[ask], sides[ask], deltas[ask]))

    def side(self, name):
        if name == BID:
            return self.bid_times, self.bid_sizes
        if name == ASK:
            return self.ask_times, self.ask_sizes
        raise ValueError(f"unknown side {name!r}")


# ---------------------------------------------------------------------------
# Rates and size moments


def _rate_one_side(times, side_name):
    n = len(times)
    if n < 2:
        raise ValueError(f"need at least 2 {side_name} events to estimate a rate")
    span = times[-1] - times[0]
    if span <= 0:
        raise ValueError(f"{side_name} events span zero time")
    lam = (n - 1) / span
    durations = np.diff(times)
    # Delta method on lambda = 1/mean(T): se = lambda^2 * sd(T) / sqrt(n).
    se = lam * lam * float(np.std(durations, ddof=1)) / math.sqrt(n - 1)
    return ParamEstimate(float(lam), se, n - 1)


def estimate_rates(sample):
    """Per-side arrival rates: (count - 1) / span of event times."""
    return (
        _rate_one_side(sample.bid_times, "bid"),
        _rate_one_side(sample.ask_times, "ask"),
    )


def mean_inter_event_time(sample):
    """gamma0: the mean of the two sides' mean inter-event times, in seconds."""
    lam_b, lam_a = estimate_rates(sample)
    return 0.5 * (1.0 / lam_b.value + 1.0 / lam_a.value)


def _autocovariances(x, max_lag, y=None):
    """Centered sample autocovariances c_0..c_max_lag (cross if y given)."""
    y = x if y is None else y
    n = len(x)
    xc = x - x.mean()
    yc = y - y.mean()
    out = np.empty(max_lag + 1)
    out[0] = float(xc @ yc) / n
    for j in range(1, max_lag + 1):
        out[j] = float(xc[:-j] @ yc[j:]) / n
    return out


def _default_lag_cut(x, cap=50):
    """First lag whose autocorrelation is inside +-2/sqrt(n), capped."""
    n = len(x)
    band = 2.0 / math.sqrt(n)
    c = _autocovariances(x, min(cap, n - 1))
    if c[0] <= 0:
        return 1
    for j in range(1, len(c)):
        if abs(c[j] / c[0]) < band:
            return j
    return cap


def _moments_one_side(sizes, lag_cut, side_name):
    n = len(sizes)
    if lag_cut is None:
        lag_cut = _default_lag_cut(sizes) if n > 1 else 1
    if n < 10 * lag_cut:
        raise ValueError(
            f"need at least {10 * lag_cut} {side_name} events for lag_cut={lag_cut}"
        )
    vbar = float(np.mean(sizes))
    c = _autocovariances(sizes, lag_cut - 1)
    v2 = float(c[0] + 2.0 * np.sum(c[1:]))
    if v2 <= 0:
        warnings.warn(
            f"long-run variance of {side_name} sizes came out nonpositive; "
            "falling back to the marginal variance",
            RuntimeWarning,
        )
        v2 = float(c[0])
    se_mean = math.sqrt(max(v2, 0.0) / n)
    # Gaussian first-order approximation for a variance-type statistic.
    se_v2 = v2 * math.sqrt(2.0 * max(2 * lag_cut - 1, 1) / n)
    return (
        ParamEstimate(vbar, se_mean, n, lag_cut),
        ParamEstimate(v2, se_v2, n, lag_cut),
    )


def estimate_size_moments(sample, lag_cut=None):
    """Per-side size mean and long-run variance.

    Returns ((vbar_bid, v2_bid), (vbar_ask, v2_ask)) as ParamEstimates. The
    long-run variance adds twice the summed autocovariances up to lag_cut - 1
    to the marginal variance; by default lag_cut is the first lag whose
    autocorrelation is statistically indistinguishable from zero (within
    +-2/sqrt(n)), capped at 50.
    """
    return (
        _moments_one_side(sample.bid_sizes, lag_cut, "bid"),
        _moments_one_side(sample.ask_sizes, lag_cut, "ask"),
    )


# ---------------------------------------------------------------------------
# Cross-flow correlation


def _merge_by_timestamp(sample):
    """Outer-join the two sides on exact timestamps, zero-filling gaps.

    Events sharing a timestamp across sides land in one row, which is what
    reconstructs the signed pairs of flows that emit both legs at once
    (duplicate timestamps within one side accumulate into a single row).
    Rows are restricted to the overlap of the two sides' spans: outside it
    one side is structurally silent, which would read as spurious
    correlation.
    """
    lo = max(sample.bid_times[0], sample.ask_times[0])
    hi = min(sample.bid_times[-1], sample.ask_times[-1])
    if hi <= lo:
        raise ValueError("bid and ask events do not overlap in time")
    keep_b = (sample.bid_times >= lo) & (sample.bid_times <= hi)
    keep_a = (sample.ask_times >= lo) & (sample.ask_times <= hi)
    all_times = np.union1d(sample.bid_times[keep_b], sample.ask_times[keep_a])
    vb = np.zeros(len(all_times))
    va = np.zeros(len(all_times))
    np.add.at(
        vb, np.searchsorted(all_times, sample.bid_times[keep_b]), sample.bid_sizes[keep_b]
    )
    np.add.at(
        va, np.searchsorted(all_times, sample.ask_times[keep_a]), sample.ask_sizes[keep_a]
    )
    return all_times, vb, va


def estimate_rho(sample, lag_cut=None):
    """Cross-correlation of the two net flows' Gaussian limits.

    Computes the long-run correlation of the per-event size series: summed
    cross-covariances (both directions) over the long-run variances'
    geometric mean, truncated at lag_cut. The two sides' clocks are
    reconciled by an outer join on exact timestamps with zero fill, so
    simultaneous bid/ask legs pair up and lone events pair with zero; this
    is the alignment under which paired flows keep their correlation
    (pairing the i-th bid with the i-th ask event decorrelates them, as
    tests/test_estimation.py shows on a re-timed sample). Mean sizes also
    feed flow covariance through event timing, so each long-run moment picks
    up a renewal correction: the product of means times the squared
    coefficient of variation of the merged gaps.

    The estimate is clamped into (-1, 1) with a warning when the raw value
    falls on or outside the boundary.
    """
    if len(sample.bid_sizes) == 0 or len(sample.ask_sizes) == 0:
        raise ValueError("both sides must be populated to estimate rho")
    all_times, vb, va = _merge_by_timestamp(sample)
    gaps = np.diff(all_times)
    timing_cv2 = 0.0
    if len(gaps) > 1 and gaps.mean() > 0:
        timing_cv2 = float(np.var(gaps, ddof=1)) / float(gaps.mean()) ** 2
    n = len(vb)
    if n < 20:
        raise ValueError("too few aligned events to estimate rho")
    if lag_cut is None:
        lag_cut = max(_default_lag_cut(vb), _default_lag_cut(va))
    lags = lag_cut - 1
    c_bb = _autocovariances(vb, lags)
    c_aa = _autocovariances(va, lags)
    c_ba = _autocovariances(vb, lags, va)
    c_ab = _autocovariances(va, lags, vb)
    mb, ma = float(vb.mean()), float(va.mean())
    lrv_b = c_bb[0] + 2.0 * np.sum(c_bb[1:]) + mb * mb * timing_cv2
    lrv_a = c_aa[0] + 2.0 * np.sum(c_aa[1:]) + ma * ma * timing_cv2
    if lrv_b <= 0 or lrv_a <= 0:
        warnings.warn(
            "nonpositive long-run variance; using marginal variances",
            RuntimeWarning,
        )
        lrv_b, lrv_a = c_bb[0], c_aa[0]
    cross = c_ba[0] + np.sum(c_ba[1:]) + np.sum(c_ab[1:]) + mb * ma * timing_cv2
    rho = float(cross / math.sqrt(lrv_b * lrv_a))
    if abs(rho) >= 1.0:
        warnings.warn(
            f"rho estimate {rho:.6f} clamped to the open interval (-1, 1)",
            RuntimeWarning,
        )
        rho = math.copysign(1.0 - 1e-12, rho)
    se = (1.0 - rho * rho) * math.sqrt(max(2 * lag_cut - 1, 1) / n)
    return ParamEstimate(rho, se, n, lag_cut)


# ---------------------------------------------------------------------------
# Tail index


def hill_estimator(sizes, k=None):
    """Hill statistic on the top-k absolute order sizes.

    Estimates the *reciprocal* tail exponent: a Pareto tail P(V > x) ~ x^-b
    gives values near 1/b (so heavier tails give larger values, and
    estimates below 0.5 mean a finite-variance tail). k defaults to
    floor(n^0.6) and must stay below n/2; the 95% CI follows from the
    asymptotic normality of the statistic, se = value/sqrt(k). The statistic
    is scale invariant. When the k + 1 largest absolute sizes are all equal,
    as on a lattice of unit sizes, the tail carries no index information:
    a RuntimeWarning is raised and value and std_error are NaN.
    """
    x = np.abs(np.asarray(sizes, dtype=float))
    x = x[x > 0]
    n = len(x)
    if n < 10:
        raise ValueError("need at least 10 nonzero sizes")
    if k is None:
        k = int(n**0.6)
    if not 1 <= k < n / 2:
        raise ValueError(f"k must satisfy 1 <= k < n/2, got k={k} for n={n}")
    tail = np.sort(x)[-(k + 1):]
    if tail[0] == tail[-1]:
        warnings.warn(
            f"the {k + 1} largest absolute sizes are all equal; "
            "the Hill statistic is undefined on a tied tail",
            RuntimeWarning,
        )
        return ParamEstimate(math.nan, math.nan, k)
    h = float(np.mean(np.log(tail[1:] / tail[0])))
    return ParamEstimate(h, h / math.sqrt(k), k)


# ---------------------------------------------------------------------------
# Batch-variance diagnostic


@dataclass(frozen=True)
class VarianceRatioTable:
    """Rows of (batch size n, variance of non-overlapping n-sums / n)."""

    rows: tuple

    @property
    def max_min_ratio(self):
        """Largest over smallest batch variance; None if the smallest is 0."""
        values = [v for _, v in self.rows]
        if min(values) == 0:
            return None
        return max(values) / min(values)


def variance_ratio_table(sizes, batches=(1, 10, 100, 1000, 10000)):
    """Variance of batch sums divided by the batch size, per ladder entry.

    For uncorrelated sizes the column is flat at the marginal variance; it
    climbs toward the long-run variance when sizes are positively
    autocorrelated. max_min_ratio summarizes the departure from flatness.
    """
    x = np.asarray(sizes, dtype=float)
    ladder = sorted(set(int(b) for b in batches))
    if ladder[0] < 1:
        raise ValueError("batch sizes must be >= 1")
    if len(x) < 2 * ladder[-1]:
        raise ValueError(
            f"need at least {2 * ladder[-1]} sizes for the largest batch"
        )
    rows = []
    for b in ladder:
        m = len(x) // b
        sums = x[: m * b].reshape(m, b).sum(axis=1)
        rows.append((b, float(np.var(sums, ddof=1)) / b))
    return VarianceRatioTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Scale map and full report


def scaled_params(est, gamma0, gamma1):
    """Re-express estimated flow parameters per coarse observation period.

    N = gamma1/gamma0 is how many event-scale units fit in one observation
    period; drift picks up sqrt(N) and the covariance N.
    """
    if not 0 < gamma0 <= gamma1:
        raise ValueError("need gamma1 >= gamma0 > 0")
    n_ratio = gamma1 / gamma0
    root = math.sqrt(n_ratio)
    return ScaledParams(
        mu_bid=root * est.lambda_bid * est.vbar_bid,
        mu_ask=root * est.lambda_ask * est.vbar_ask,
        Lambda=n_ratio * est.covariance(),
        N=n_ratio,
    )


def estimate_report(sample, gamma1, lag_cut=None, hill_k=None):
    """Full parameter report for one session, as a JSON-ready dict.

    Runs every estimator, assembles the implied DiffusionParams, and maps
    them to the observation scale gamma1 (seconds) using the estimated mean
    inter-event time as gamma0. Estimates appear as {value, std_error,
    n_used} objects, with null for an undefined value; diagnostics carry the
    batch-variance ratios, the lag cut of the size moments (`lag_cut`, the
    larger side's when chosen per side), the cut each long-run estimator
    used (`lag_cuts`), and which sides' Hill statistic met a tied tail.
    """
    lam_b, lam_a = estimate_rates(sample)
    (vbar_b, v2_b), (vbar_a, v2_a) = estimate_size_moments(sample, lag_cut)
    rho = estimate_rho(sample, lag_cut)
    hill_b = hill_estimator(sample.bid_sizes, hill_k)
    hill_a = hill_estimator(sample.ask_sizes, hill_k)
    est = DiffusionParams(
        lambda_bid=lam_b.value,
        lambda_ask=lam_a.value,
        vbar_bid=vbar_b.value,
        vbar_ask=vbar_a.value,
        v2_bid=v2_b.value,
        v2_ask=v2_a.value,
        rho=rho.value,
    )
    gamma0 = mean_inter_event_time(sample)
    scaled = scaled_params(est, gamma0, gamma1)

    def as_dict(e):
        value, se = (None, None) if math.isnan(e.value) else (e.value, e.std_error)
        return {"value": value, "std_error": se, "n_used": e.n_used}

    ratio_b = variance_ratio_table(
        sample.bid_sizes, batches=_ratio_ladder(len(sample.bid_sizes))
    )
    ratio_a = variance_ratio_table(
        sample.ask_sizes, batches=_ratio_ladder(len(sample.ask_sizes))
    )
    return {
        "lambda_b": as_dict(lam_b),
        "lambda_a": as_dict(lam_a),
        "vbar_b": as_dict(vbar_b),
        "vbar_a": as_dict(vbar_a),
        "v2_b": as_dict(v2_b),
        "v2_a": as_dict(v2_a),
        "rho": as_dict(rho),
        "hill_b": as_dict(hill_b),
        "hill_a": as_dict(hill_a),
        "N": scaled.N,
        "mu": [scaled.mu_bid, scaled.mu_ask],
        "Lambda": scaled.Lambda.tolist(),
        "diagnostics": {
            "gamma0": gamma0,
            "gamma1": gamma1,
            "lag_cut": max(v2_b.lag_cut, v2_a.lag_cut),
            "lag_cuts": {"size_moments": [v2_b.lag_cut, v2_a.lag_cut], "rho": rho.lag_cut},
            "hill_tied_tail": [math.isnan(hill_b.value), math.isnan(hill_a.value)],
            "variance_ratio_bid": ratio_b.rows,
            "variance_ratio_ask": ratio_a.rows,
            "variance_ratio_max_min": [ratio_b.max_min_ratio, ratio_a.max_min_ratio],
        },
    }


def _ratio_ladder(n):
    """Batch sizes that leave at least ten batch sums each: with fewer, the
    batch variance is too noisy to read, and two sums can tie at zero."""
    ladder = [b for b in (1, 10, 100, 1000, 10000) if n // b >= 10]
    return ladder or [1]
