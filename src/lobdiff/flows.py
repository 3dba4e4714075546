"""Order-flow generators: Poisson, Hawkes, ACD, ARCH volumes, and an agent mix.

Every generator is a pure function of (spec, horizon-or-count, seed): the same
inputs give the same stream, bit for bit, regardless of how many other
generators have run. Event-stream generators return the columnar form
(times, sides, deltas): float times, int8 sides (0 = bid, 1 = ask) and
float signed sizes, which is what `book.replay`, `io.write_events_csv` and
`estimation.FlowSample.from_arrays` take.

Model classes
-------------
- `gen_poisson_flow`: per side, one merged Poisson stream of limit arrivals
  (+unit), market orders and cancellations (-unit); inter-event times are
  Exp(lambda + mu + theta) and the two sides are independent.
- `gen_hawkes_flow`: multivariate self-exciting events with exponentially
  decaying intensities, simulated by exact thinning; event clustering in time,
  sides assigned by event type, signs by a fair coin, magnitudes from a size
  distribution.
- `gen_acd_durations`: autoregressive conditional durations T_i = psi_i eps_i.
- `gen_arch_volumes`: bivariate signed sizes V = sigma z with ARCH(1)
  conditional variances per side and correlated Gaussian innovations.
- `gen_agent_flow`: arrivals split among market-only, limit-only, and mixed
  traders; mixed traders touch both sides at one shared timestamp (the bid
  leg is always emitted first).

Stationarity guards (Hawkes branching spectral radius < 1, ACD coefficient
sum < 1, ARCH slope < 1) are enforced at spec construction: every stream
produced here satisfies the stationary-increments and finite-variance
assumptions the rest of the package builds on.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream

__all__ = [
    "Dist",
    "PoissonFlowSpec",
    "HawkesFlowSpec",
    "ACDSpec",
    "ArchVolumeSpec",
    "AgentMixSpec",
    "gen_poisson_flow",
    "gen_hawkes_flow",
    "gen_acd_durations",
    "gen_arch_volumes",
    "gen_agent_flow",
    "gen_flow",
    "paired_events",
]


# ---------------------------------------------------------------------------
# Declarative positive distributions


_DIST_KINDS = ("constant", "exponential", "lognormal", "pareto", "uniform")


@dataclass(frozen=True)
class Dist:
    """A positive distribution named by kind, for sizes/durations/innovations.

    kinds and the fields they read:
      - "constant":    value
      - "exponential": mean
      - "lognormal":   mean (of the variable), sigma (std of the log)
      - "pareto":      alpha (tail exponent), minimum (scale; support [minimum, inf))
      - "uniform":     low, high with 0 < low < high

    Every field must be > 0 and finite, and low < high, whatever the kind:
    a field the kind does not read must still hold a usable value.
    Declarative rather than callable so specs can round-trip through JSON.
    """

    kind: str
    value: float = 1.0
    mean: float = 1.0
    sigma: float = 1.0
    alpha: float = 2.5
    minimum: float = 1.0
    low: float = 0.5
    high: float = 1.5

    def __post_init__(self):
        for name in ("value", "mean", "sigma", "alpha", "minimum", "low", "high"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be > 0 and finite, got {value}")
        if not self.low < self.high:
            raise ValueError(f"need low < high, got low={self.low}, high={self.high}")
        if self.kind not in _DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    def sample(self, rng, size):
        if self.kind == "constant":
            return np.full(size, self.value)
        if self.kind == "exponential":
            return rng.exponential(self.mean, size)
        if self.kind == "lognormal":
            mu = math.log(self.mean) - 0.5 * self.sigma**2
            return rng.lognormal(mu, self.sigma, size)
        if self.kind == "pareto":
            return (rng.pareto(self.alpha, size) + 1.0) * self.minimum
        return rng.uniform(self.low, self.high, size)

    def mean_value(self):
        if self.kind == "constant":
            return self.value
        if self.kind in ("exponential", "lognormal"):
            return self.mean
        if self.kind == "pareto":
            if self.alpha <= 1:
                return math.inf
            return self.alpha * self.minimum / (self.alpha - 1)
        return 0.5 * (self.low + self.high)

    def second_moment(self):
        if self.kind == "constant":
            return self.value**2
        if self.kind == "exponential":
            return 2.0 * self.mean**2
        if self.kind == "lognormal":
            return self.mean**2 * math.exp(self.sigma**2)
        if self.kind == "pareto":
            if self.alpha <= 2:
                return math.inf
            return self.alpha * self.minimum**2 / (self.alpha - 2)
        return (self.high**3 - self.low**3) / (3.0 * (self.high - self.low))


UNIT_SIZE = Dist("constant", value=1.0)
UNIT_MEAN_EXP = Dist("exponential", mean=1.0)


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class PoissonFlowSpec:
    """Memoryless flow: limit orders at rate lambda_limit (+unit_size), market
    orders at mu_market and cancellations at theta_cancel (both -unit_size),
    independently on each side."""

    lambda_limit: float
    mu_market: float
    theta_cancel: float
    unit_size: float = 1.0

    def __post_init__(self):
        for name in ("lambda_limit", "mu_market", "theta_cancel", "unit_size"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be > 0 and finite, got {value}")

    @property
    def total_rate(self):
        """Per-side event rate lambda + mu + theta."""
        return self.lambda_limit + self.mu_market + self.theta_cancel

    @property
    def p_positive(self):
        """P[delta = +unit_size] for one event."""
        return self.lambda_limit / self.total_rate


@dataclass(frozen=True)
class HawkesFlowSpec:
    """Self-exciting flow with intensities
    lambda_i(t) = base_rates[i] + sum_j excitation[i, j] * sum_{t_k^j < t} exp(-decay[i] (t - t_k^j)).

    Event types map to book sides by parity (even-indexed types hit the bid,
    odd the ask; a single type drives the bid only); each event's delta is a
    fair-coin sign times a draw from size_dist.
    """

    base_rates: tuple
    excitation: tuple
    decay: tuple
    size_dist: Dist = UNIT_SIZE

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.base_rates, dtype=float))
        kappa = np.atleast_1d(np.asarray(self.decay, dtype=float))
        delta = np.atleast_2d(np.asarray(self.excitation, dtype=float))
        k = len(theta)
        if delta.shape != (k, k) or len(kappa) != k:
            raise ValueError(
                f"shape mismatch: {k} base rates need ({k},{k}) excitation and {k} decays"
            )
        if np.any(theta <= 0) or np.any(kappa <= 0) or np.any(delta < 0):
            raise ValueError("rates/decays must be > 0 and excitation >= 0")
        radius = self.branching_radius()
        if radius >= 1:
            raise ValueError(
                f"unstable spec: branching spectral radius {radius:.3f} >= 1"
            )

    def _arrays(self):
        return (
            np.atleast_1d(np.asarray(self.base_rates, dtype=float)),
            np.atleast_2d(np.asarray(self.excitation, dtype=float)),
            np.atleast_1d(np.asarray(self.decay, dtype=float)),
        )

    def branching_radius(self):
        theta, delta, kappa = self._arrays()
        branching = delta / kappa[:, None]
        return float(np.max(np.abs(np.linalg.eigvals(branching))))

    def mean_rates(self):
        """Stationary mean intensities (I - B)^-1 theta."""
        theta, delta, kappa = self._arrays()
        branching = delta / kappa[:, None]
        return np.linalg.solve(np.eye(len(theta)) - branching, theta)


@dataclass(frozen=True)
class ACDSpec:
    """Autoregressive conditional durations: T_i = psi_i * eps_i with
    psi_i = a0 + sum_k a_coeffs[k] psi_{i-1-k} + sum_k b_coeffs[k] T_{i-1-k}."""

    a0: float
    a_coeffs: tuple = ()
    b_coeffs: tuple = ()
    innovation: Dist = UNIT_MEAN_EXP

    def __post_init__(self):
        if self.a0 <= 0:
            raise ValueError("a0 must be > 0")
        coeffs = tuple(self.a_coeffs) + tuple(self.b_coeffs)
        if any(c < 0 for c in coeffs):
            raise ValueError("ACD coefficients must be >= 0")
        if sum(coeffs) >= 1:
            raise ValueError(
                f"nonstationary ACD: coefficient sum {sum(coeffs):.3f} >= 1"
            )
        m = self.innovation.mean_value()
        if not math.isfinite(m) or abs(m - 1.0) > 1e-9:
            raise ValueError("innovation distribution must have unit mean")

    @property
    def unconditional_mean(self):
        return self.a0 / (1.0 - sum(self.a_coeffs) - sum(self.b_coeffs))


@dataclass(frozen=True)
class ArchVolumeSpec:
    """Bivariate signed order sizes V_i = sigma_i z_i with per-side ARCH(1)
    variances sigma_i^2 = alpha0 + alpha1 V_{i-1}^2 and jointly Gaussian
    innovations (z^b, z^a) of correlation rho_z."""

    alpha0_bid: float
    alpha1_bid: float
    alpha0_ask: float
    alpha1_ask: float
    rho_z: float = 0.0

    def __post_init__(self):
        for name in ("alpha0_bid", "alpha0_ask"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("alpha1_bid", "alpha1_ask"):
            a1 = getattr(self, name)
            if not 0 <= a1 < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not -1 < self.rho_z < 1:
            raise ValueError("rho_z must lie in (-1, 1)")

    def stationary_variance(self):
        """(var V^b, var V^a) under the stationary law."""
        return (
            self.alpha0_bid / (1.0 - self.alpha1_bid),
            self.alpha0_ask / (1.0 - self.alpha1_ask),
        )


@dataclass(frozen=True)
class AgentMixSpec:
    """Arrival mix of market-only (prob m), limit-only (prob l), and mixed
    traders (prob 1 - m - l) splitting a size V across both sides.

    Per arrival, with V from size_dist, the signed size pair (V^b, V^a) is:

        (V, 0) or (0, V)                        each with prob m/2
        (-V, 0) or (0, -V)                      each with prob l/2
        (gamma V, -(1-gamma) V)
          or (-(1-gamma) V, gamma V)            each with prob (1-m-l)/2

    Mixed traders emit both legs at the same timestamp, bid leg first. The
    sign rows above follow the source model's table as printed; set
    flip_market_signs=True for the queue-mechanical reading in which
    market-only deltas are negative and limit-only positive.
    """

    m: float
    l: float
    gamma: float
    duration_dist: Dist = UNIT_MEAN_EXP
    size_dist: Dist = UNIT_SIZE
    flip_market_signs: bool = False

    def __post_init__(self):
        # Written so that NaN fails: every comparison with NaN is false.
        if not (self.m >= 0 and self.l >= 0 and self.m + self.l <= 1):
            raise ValueError(f"need m >= 0, l >= 0, m + l <= 1, got m={self.m}, l={self.l}")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not math.isfinite(self.duration_dist.mean_value()):
            raise ValueError("duration distribution must have finite mean")
        if not math.isfinite(self.size_dist.second_moment()):
            raise ValueError("size distribution must have finite second moment")

    @property
    def s(self):
        """Probability of a mixed-trader arrival."""
        return 1.0 - self.m - self.l


# ---------------------------------------------------------------------------
# Generators


def _arrival_times(mean, horizon, rng, draw):
    """Cumulative arrival times <= horizon; `draw(rng, n)` yields durations."""
    n = int(horizon / mean * 1.15 + 10.0 * math.sqrt(horizon / mean) + 50)
    t = np.cumsum(draw(rng, n))
    while t[-1] < horizon:
        more = np.cumsum(draw(rng, max(n // 4, 50))) + t[-1]
        t = np.concatenate([t, more])
    return t[t <= horizon]


def gen_poisson_flow(spec, horizon, seed):
    """Two independent per-side Poisson streams merged into one event stream.

    Per side, inter-event times are Exp(lambda + mu + theta) and each event is
    +unit_size with probability lambda/(lambda + mu + theta), else -unit_size.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    rate = spec.total_rate
    p = spec.p_positive
    cols = []
    for side_idx, side_name in enumerate(("bid", "ask")):
        rng = substream(seed, "poisson", side_name)
        t = _arrival_times(1.0 / rate, horizon, rng, lambda r, n: r.exponential(1.0 / rate, n))
        signs = np.where(rng.random(len(t)) < p, 1.0, -1.0)
        cols.append((t, np.full(len(t), side_idx, dtype=np.int8), signs * spec.unit_size))
    times = np.concatenate([c[0] for c in cols])
    sides = np.concatenate([c[1] for c in cols])
    deltas = np.concatenate([c[2] for c in cols])
    order = np.argsort(times, kind="stable")
    return times[order], sides[order], deltas[order]


class _Blocks:
    """Amortized scalar draws from a Generator (uniforms and unit exponentials)."""

    def __init__(self, rng, size=8192):
        self._rng = rng
        self._size = size
        self._u = rng.random(size)
        self._e = rng.exponential(1.0, size)
        self._iu = 0
        self._ie = 0

    def uniform(self):
        if self._iu == self._size:
            self._u = self._rng.random(self._size)
            self._iu = 0
        v = self._u[self._iu]
        self._iu += 1
        return float(v)

    def exponential(self):
        if self._ie == self._size:
            self._e = self._rng.exponential(1.0, self._size)
            self._ie = 0
        v = self._e[self._ie]
        self._ie += 1
        return float(v)


def gen_hawkes_flow(spec, horizon, seed):
    """Exact thinning simulation of the self-exciting flow.

    Between events each intensity decays toward its base rate, so the
    intensity total immediately after the last event bounds the future total;
    candidates drawn at that bound are accepted with probability equal to the
    decayed intensity ratio. No discretization is involved: the law of the
    output is exactly that of the specified process.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    theta, delta, kappa = spec._arrays()
    k = len(theta)
    theta_l = theta.tolist()
    kappa_l = kappa.tolist()
    delta_cols = [delta[:, j].tolist() for j in range(k)]

    rng = substream(seed, "hawkes")
    blocks = _Blocks(rng)
    excess = [0.0] * k  # decayed excitation above base, valid at the cursor
    t = 0.0
    out_times = []
    out_types = []
    while True:
        bound = sum(theta_l) + sum(excess)
        w = blocks.exponential() / bound
        t += w
        if t > horizon:
            break
        for i in range(k):
            excess[i] *= math.exp(-kappa_l[i] * w)
        lam = [theta_l[i] + excess[i] for i in range(k)]
        total = sum(lam)
        if blocks.uniform() * bound <= total:
            u = blocks.uniform() * total
            etype = 0
            acc = lam[0]
            while acc < u and etype < k - 1:
                etype += 1
                acc += lam[etype]
            out_times.append(t)
            out_types.append(etype)
            col = delta_cols[etype]
            for i in range(k):
                excess[i] += col[i]
    sizes = spec.size_dist.sample(rng, len(out_times))
    signs = np.where(rng.random(len(out_times)) < 0.5, 1.0, -1.0)
    types = np.asarray(out_types, dtype=np.int64)
    sides = (types % 2).astype(np.int8)
    return np.asarray(out_times, dtype=float), sides, signs * sizes


def gen_acd_durations(spec, count, seed):
    """Durations T_i = psi_i eps_i under the conditional-mean recursion.

    psi lags are initialized at the unconditional mean a0/(1 - sum a - sum b)
    and the first 10 (p + q) draws are discarded, so the returned sequence
    carries no initialization transient.
    """
    if count <= 0:
        raise ValueError("count must be > 0")
    rng = substream(seed, "acd")
    a = [float(c) for c in spec.a_coeffs]
    b = [float(c) for c in spec.b_coeffs]
    p, q = len(a), len(b)
    warmup = 10 * (p + q)
    total = count + warmup
    eps = spec.innovation.sample(rng, total)
    mbar = spec.unconditional_mean

    out = np.empty(total)
    psi_lags = [mbar] * p  # psi_lags[0] = psi_{i-1}
    t_lags = [mbar] * q
    a0 = spec.a0
    for i in range(total):
        psi = a0
        for j in range(p):
            psi += a[j] * psi_lags[j]
        for j in range(q):
            psi += b[j] * t_lags[j]
        duration = psi * eps[i]
        out[i] = duration
        if p:
            psi_lags.insert(0, psi)
            psi_lags.pop()
        if q:
            t_lags.insert(0, duration)
            t_lags.pop()
    return out[warmup:]


def gen_arch_volumes(spec, count, seed):
    """Signed size pairs (V^b, V^a) under per-side ARCH(1) variances.

    Returns a (count, 2) array. The recursion starts from the stationary
    variance alpha0/(1 - alpha1), so the sequence is stationary from the
    first row.
    """
    if count <= 0:
        raise ValueError("count must be > 0")
    rng = substream(seed, "arch")
    z = rng.standard_normal((count, 2))
    z[:, 1] = spec.rho_z * z[:, 0] + math.sqrt(1.0 - spec.rho_z**2) * z[:, 1]

    if spec.alpha1_bid == 0.0 and spec.alpha1_ask == 0.0:
        scale = np.sqrt([spec.alpha0_bid, spec.alpha0_ask])
        return z * scale

    out = np.empty((count, 2))
    v2b, v2a = spec.stationary_variance()
    a0b, a1b = spec.alpha0_bid, spec.alpha1_bid
    a0a, a1a = spec.alpha0_ask, spec.alpha1_ask
    vb2_prev, va2_prev = v2b, v2a
    for i in range(count):
        vb = math.sqrt(a0b + a1b * vb2_prev) * z[i, 0]
        va = math.sqrt(a0a + a1a * va2_prev) * z[i, 1]
        out[i, 0] = vb
        out[i, 1] = va
        vb2_prev = vb * vb
        va2_prev = va * va
    return out


def paired_events(times, pairs):
    """Expand per-arrival signed size pairs into an event stream.

    Each row (V^b, V^a) becomes up to two events at the shared arrival time:
    the bid leg first, then the ask leg; zero legs are dropped. This is the
    bridge from pair-valued flows (ARCH volumes, agent mixes) to the
    single-queue event representation.
    """
    times = np.asarray(times, dtype=float)
    pairs = np.asarray(pairs, dtype=float)
    if pairs.shape != (len(times), 2):
        raise ValueError("pairs must be (n, 2) with one row per time")
    out_t = np.repeat(times, 2)
    out_s = np.tile(np.array([0, 1], dtype=np.int8), len(times))
    out_d = pairs.reshape(-1)
    keep = out_d != 0.0
    return out_t[keep], out_s[keep], out_d[keep]


def agent_pair_table(spec, count, seed_or_rng):
    """Draw `count` signed size pairs (V^b, V^a) from the agent mix.

    The six equally-split rows of the mix table are sampled by one uniform per
    arrival; see `AgentMixSpec` for the table. Exposed separately from
    `gen_agent_flow` so moment checks can look at pairs without building
    events.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else substream(seed_or_rng, "agent-pairs")
    )
    v = spec.size_dist.sample(rng, count)
    u = rng.random(count)
    m, l, s, g = spec.m, spec.l, spec.s, spec.gamma

    pairs = np.zeros((count, 2))
    market = 1.0 if not spec.flip_market_signs else -1.0
    limit = -1.0 if not spec.flip_market_signs else 1.0
    edges = np.array([m / 2, m, m + l / 2, m + l, m + l + s / 2])
    row = np.searchsorted(edges, u, side="right")  # 0..5
    pairs[row == 0, 0] = market * v[row == 0]
    pairs[row == 1, 1] = market * v[row == 1]
    pairs[row == 2, 0] = limit * v[row == 2]
    pairs[row == 3, 1] = limit * v[row == 3]
    mixed_b = row == 4
    pairs[mixed_b, 0] = g * v[mixed_b]
    pairs[mixed_b, 1] = -(1.0 - g) * v[mixed_b]
    mixed_a = row == 5
    pairs[mixed_a, 0] = -(1.0 - g) * v[mixed_a]
    pairs[mixed_a, 1] = g * v[mixed_a]
    return pairs


def gen_agent_flow(spec, horizon, seed):
    """Event stream of the agent mix: one arrival per duration draw, one or
    two events per arrival (mixed traders emit both legs at one timestamp,
    bid leg first)."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    rng = substream(seed, "agent")
    times = _arrival_times(
        spec.duration_dist.mean_value(), horizon, rng, spec.duration_dist.sample
    )
    pairs = agent_pair_table(spec, len(times), rng)
    return paired_events(times, pairs)


def gen_flow(spec, horizon, seed):
    """Event stream of any event-flow spec (Poisson, Hawkes or agent mix)."""
    for spec_type, gen in (
        (PoissonFlowSpec, gen_poisson_flow),
        (HawkesFlowSpec, gen_hawkes_flow),
        (AgentMixSpec, gen_agent_flow),
    ):
        if isinstance(spec, spec_type):
            return gen(spec, horizon, seed)
    raise TypeError(f"unsupported flow spec {type(spec).__name__}")
