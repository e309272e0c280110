"""Synthetic auction generation: Poisson bidder arrivals, the valuation
distributions used in the simulation study, and the one standing-price
rule (running second maximum of the reserve and the bids), replayed over
many bid streams at once by one kernel, which refuses a stream whose bid
times are not finite, non-negative and in order.  ``replay_streams``,
which the simulator, bid-log ingestion and bid-log export all share,
replays the streams 1024 to a padded batch: the batch holds a cell per
bid of its longest stream, so the fixed count bounds the replay's
memory, and a study, log or median-bias replicate of about 1000 auctions
is one batch.  ``replay_bids`` runs the kernel on its one stream and
builds the record, whose own audit is the only one it runs.

Gamma and beta valuations are drawn with the generator's own
``standard_gamma`` and ``beta``.  Their CDFs and quantiles are the
regularized incomplete gamma and beta functions of ``scipy.special``
and their inverses, imported where they are called, and Pareto's are
power laws.  These are the formulas ``scipy.stats`` evaluates, with the
same argument scaling, so the draws and the CDFs equal its ``rvs`` and
``cdf`` bit for bit."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Union

import numpy as np

from .errors import ValidationError
from .model import AuctionRecord, ObservedDataset, break_ties

_KINDS = ("uniform", "piecewise_uniform", "pareto", "gamma", "beta")
_SPECS = ("uniform", "piecewise", "pareto", "gamma", "beta")   # parse_dist's kinds


@dataclass(frozen=True)
class ValuationDistribution:
    """Population valuation distribution used to draw bids.

    Supported kinds: ``uniform(a, b)``, ``piecewise_uniform`` (weighted
    mixture of uniforms), ``pareto(scale, shape)``, ``gamma(shape,
    rate)`` and ``beta(a, b)``.  Pareto is exposed with explicit (scale,
    shape) naming; both values are configurable.  A direct construction
    is held to the same rules as the factories and ``parse_dist``.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        kind, params = self.kind, self.params
        if kind not in _KINDS:
            raise ValidationError(f"unknown distribution kind {kind!r}; "
                                  f"expected one of {', '.join(_KINDS)}")
        try:
            values = np.asarray(params, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"{kind} parameters must be numbers, got {params}") from None
        if not np.isfinite(values).all():
            raise ValidationError(f"{kind} parameters must be finite, got {params}")
        if kind == "piecewise_uniform":
            if values.shape != (0,) and values.shape[1:] != (3,):  # () fails the sum rule
                raise ValidationError(f"piecewise_uniform takes (a, b, weight) pieces, "
                                      f"got {params}")
            if any(a >= b or a < 0 or w <= 0 for a, b, w in values.tolist()):
                raise ValidationError("each piece needs 0 <= a < b and weight > 0")
            if abs(sum(w for _, _, w in values.tolist()) - 1.0) > 1e-9:
                raise ValidationError("piece weights must sum to 1")
        elif values.shape != (2,):
            raise ValidationError(f"{kind} takes 2 parameters, got {values.size}")
        elif kind == "uniform":
            if not values[0] < values[1]:
                raise ValidationError("uniform requires a < b")
            if values[0] < 0:
                raise ValidationError("valuations must be non-negative")
        elif values.min() <= 0:
            raise ValidationError({"pareto": "pareto requires scale > 0 and shape > 0",
                                   "gamma": "gamma requires shape > 0 and rate > 0",
                                   "beta": "beta requires positive shape parameters"}[kind])
        floats = tuple(values.tolist())     # kept as floats, as the factories keep them
        object.__setattr__(self, "params", tuple(map(tuple, floats)) if values.ndim > 1 else floats)

    # -- constructors -------------------------------------------------
    @staticmethod
    def uniform(a: float, b: float) -> "ValuationDistribution":
        return ValuationDistribution("uniform", (float(a), float(b)))

    @staticmethod
    def piecewise_uniform(pieces) -> "ValuationDistribution":
        """pieces: iterable of (a, b, weight); weights must sum to 1."""
        return ValuationDistribution(
            "piecewise_uniform", tuple((float(a), float(b), float(w)) for a, b, w in pieces))

    @staticmethod
    def pareto(scale: float, shape: float) -> "ValuationDistribution":
        return ValuationDistribution("pareto", (float(scale), float(shape)))

    @staticmethod
    def gamma(shape: float, rate: float) -> "ValuationDistribution":
        return ValuationDistribution("gamma", (float(shape), float(rate)))

    @staticmethod
    def beta(a: float, b: float) -> "ValuationDistribution":
        return ValuationDistribution("beta", (float(a), float(b)))

    # -- API ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sampler(rng)(size)

    def sampler(self, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
        """``size -> self.sample(rng, size)``, the family's rule looked up
        once.  Uniform(0, 1) is ``rng.random``: numpy's ``uniform`` draws
        low + (high - low) * u from the same u, so the numbers and the
        generator's state after them are the same."""
        if self.kind == "uniform":
            a, b = self.params
            return rng.random if (a, b) == (0.0, 1.0) else (lambda size: rng.uniform(a, b, size))
        if self.kind == "piecewise_uniform":
            lo, hi, w = np.array(self.params).T
            weights = w / w.sum()

            def pieces(size):
                idx = rng.choice(len(w), size=size, p=weights)
                return rng.uniform(lo[idx], hi[idx])
            return pieces
        if self.kind == "pareto":
            scale, shape = self.params
            return lambda size: scale * rng.random(size) ** (-1.0 / shape)
        if self.kind == "gamma":
            shape, rate = self.params
            return lambda size: rng.standard_gamma(shape, size) * (1.0 / rate)
        a, b = self.params
        return lambda size: rng.beta(a, b, size)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            return np.clip((x - a) / (b - a), 0.0, 1.0)
        if self.kind == "piecewise_uniform":
            out = np.zeros_like(x, dtype=float)
            for a, b, w in self.params:
                out = out + w * np.clip((x - a) / (b - a), 0.0, 1.0)
            return out
        if self.kind == "pareto":
            scale, shape = self.params
            return 1.0 - np.maximum(x / scale, 1.0) ** -shape
        from scipy import special
        if self.kind == "gamma":
            shape, rate = self.params
            return special.gammainc(shape, np.maximum(x, 0.0) / (1.0 / rate))
        a, b = self.params
        return special.betainc(a, b, np.clip(x, 0.0, 1.0))

    def support(self) -> tuple[float, float]:
        """(lo, hi) with hi chosen so that F(hi) >= 1 - 1e-9 for
        unbounded distributions."""
        if self.kind == "uniform":
            return self.params
        if self.kind == "piecewise_uniform":
            return (min(p[0] for p in self.params), max(p[1] for p in self.params))
        q = 1.0 - 1e-9
        if self.kind == "pareto":
            scale, shape = self.params
            return (scale, (1.0 - q) ** (-1.0 / shape) * scale)
        from scipy import special
        if self.kind == "gamma":
            shape, rate = self.params
            return (0.0, float(special.gammaincinv(shape, q) * (1.0 / rate)))
        a, b = self.params
        return (0.0, float(special.betaincinv(a, b, q)))


def parse_dist(spec: str) -> ValuationDistribution:
    """Parse 'kind:params', e.g. uniform:1,20 gamma:10,2 pareto:3,100
    beta:2,2 piecewise:1,2,0.5;3,4,0.5 (pareto is scale,shape; gamma is
    shape,rate)."""
    kind, _, rest = spec.partition(":")
    if kind not in _SPECS:
        raise ValidationError(f"a distribution spec starts with one of "
                              f"{', '.join(f'{k}:' for k in _SPECS)}")
    try:
        if kind == "piecewise":
            return ValuationDistribution.piecewise_uniform(
                [float(v) for v in chunk.split(",")] for chunk in rest.split(";"))
        return ValuationDistribution(kind, tuple(float(v) for v in rest.split(",")))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot parse distribution spec {spec!r}: {exc}")


# the generator is named as a string: evaluating np.random here would load
# numpy.random in every process that imports this module
ReservePolicy = Union[float, Callable[["np.random.Generator"], float]]


@dataclass(frozen=True)
class SimConfig:
    """Study configuration: arrival rate, window, reserve policy, size."""

    lam: float
    tau: float
    K: int
    seed: int
    reserve_policy: ReservePolicy = 0.0

    def __post_init__(self):
        rates_ok = all(math.isfinite(v) and v > 0 for v in (self.lam, self.tau))
        ints_ok = all(isinstance(v, Integral) for v in (self.K, self.seed))
        if not (rates_ok and ints_ok and self.K >= 1 and self.seed >= 0):
            raise ValidationError("SimConfig requires finite lam > 0, finite tau > 0, "
                                  "integer K >= 1 and integer seed >= 0")
        policy = self.reserve_policy
        if not callable(policy) and not 0.0 <= policy < math.inf:
            raise ValidationError(f"a constant reserve must be finite and >= 0, got {policy}")


def _replay_rows(reserve, times, bids):
    """Replay chronological bid streams at once, padded with -inf bids
    (never placed); each stream's times must be finite, >= 0 and
    non-decreasing (equal times are kept).  The standing price is the
    running second maximum of the reserve and the bids so far, with a
    jump wherever it strictly increases (a bid at or below it cannot
    change that maximum, so this is also the path of the placed bids); a
    stream sells iff a bid exceeds its reserve.  Returns ``sold``, ``m``
    and the jumps' prices and waits."""
    lengths = np.fromiter(map(len, bids), np.intp, len(bids))
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    bid = np.full((len(bids), filled.shape[1] + 1), -np.inf)
    bid[:, 0] = reserve
    bid[:, 1:][filled] = np.concatenate(bids)
    top = np.maximum.accumulate(bid, axis=1)
    times = np.concatenate(times)
    # maximum propagates NaN, so the last top is finite iff the reserve
    # and every bid are (bar -inf bids)
    if not np.isfinite(top[:, -1]).all() or times.shape != (lengths.sum(),):
        raise ValidationError("reserve and bids must be finite, with one time per bid")
    first = (lengths.cumsum() - lengths)[lengths > 0]      # each stream's first time
    rising = times[1:] >= times[:-1]
    rising[first[1:] - 1] = True                            # a new stream may start lower
    if not (np.isfinite(times).all() and rising.all() and (times[first] >= 0).all()):
        raise ValidationError("bid times must be finite, >= 0 and in order within each stream")
    second = np.maximum.accumulate(
        np.concatenate((bid[:, :1], np.minimum(bid[:, 1:], top[:, :-1])), axis=1), axis=1)
    jump = second[:, 1:] > second[:, :-1]
    at = np.zeros(filled.shape)
    at[filled] = times
    when, m = at[jump], jump.sum(axis=1)
    before = np.concatenate(([0.0], when[:-1]))    # the row's previous jump time,
    before[(m.cumsum() - m)[m > 0]] = 0.0           # or 0.0 before its first
    return top[:, -1] > bid[:, 0], m, second[:, 1:][jump], when - before


_BATCH = 1024       # streams per padded replay, which bounds its memory


def replay_streams(streams, tau: float) -> ObservedDataset:
    """The dataset of ``(reserve, times, bids)`` streams, each with one
    time per bid, replayed in order; ``streams`` is consumed ``_BATCH``
    streams at a time."""
    streams, parts = iter(streams), []
    while batch := list(itertools.islice(streams, _BATCH)):
        reserves, times, bids = zip(*batch)
        parts.append((reserves, *_replay_rows(reserves, times, bids)))
    columns = [np.concatenate(c) for c in zip(*parts)] or [()] * 5
    return ObservedDataset.from_arrays(*columns, tau)


def replay_bids(reserve: float, duration: float, times, bids) -> AuctionRecord:
    """Replay one chronological (time, bid) stream, ``_replay_rows`` on
    one row, and return its record, which the record's audit checks."""
    sold, _, price, wait = _replay_rows([reserve], [times], [bids])
    return AuctionRecord(reserve, duration, zip(price.tolist(), wait.tolist()), bool(sold[0]))


def _draws(lam: float, tau: float, dist: ValuationDistribution, draws):
    """Each ``(reserve, rng)`` of ``draws`` as one auction's ``(reserve,
    times, bids)``, all drawn from its ``rng``: Exponential(lam)
    inter-arrival times accumulated a block at a time until one passes
    tau, then a bid for each arrival at or before tau.

    This order is the stream contract, and ``test_auto_delta_echo`` pins
    it through the median-bias delta.  Each auction takes blocks of
    max(16, floor(lam*tau + 6*sqrt(lam*tau) + 10)) exponentials from its
    generator, then its n valuations.  ``run_study`` gives each auction a
    generator of its own; a median-bias replicate passes one generator
    for all its auctions and then draws the tie jitter from it.  The draw
    methods are looked up once per run of auctions on the same
    generator."""
    if not (0.0 < lam < math.inf and 0.0 < tau < math.inf):
        raise ValidationError(f"lam and tau must be finite and > 0, got {lam!r} and {tau!r}")
    scale, mean = 1.0 / lam, lam * tau
    if not math.isfinite(mean):
        raise ValidationError(f"lam * tau must be finite, got {lam!r} * {tau!r}")
    block = max(16, int(mean + 6 * np.sqrt(mean) + 10))
    cumsum = np.add.accumulate      # ndarray.cumsum without the method call's overhead
    bound = None
    for reserve, rng in draws:
        if rng is not bound:
            bound, exponential, sample = rng, rng.exponential, dist.sampler(rng)
        times = cumsum(exponential(scale, block))
        n = times.searchsorted(tau, "right")
        while n == len(times):      # no arrival has passed tau yet
            times = np.concatenate((times, times[-1] + cumsum(exponential(scale, block))))
            n = times.searchsorted(tau, "right")
        yield reserve, times[:n], sample(n)


def run_auction(lam: float, tau: float, reserve: float,
                dist: ValuationDistribution, rng: np.random.Generator,
                return_trace: bool = False):
    """Simulate a single auction; optionally return the full bid trace."""
    _, times, bids = next(_draws(lam, tau, dist, [(reserve, rng)]))
    record = replay_bids(reserve, tau, times, bids)
    return (record, (times, bids)) if return_trace else record


def simulate_auctions(lam: float, tau: float, dist: ValuationDistribution,
                      draws, tie_rng: np.random.Generator,
                      scale: float) -> ObservedDataset:
    """One auction per ``(reserve, rng)`` of ``draws``, in order, its
    bidders drawn from its ``rng``; prices that tie are then broken with
    Uniform(0, ``scale``) reserve jitter drawn from ``tie_rng``."""
    return break_ties(replay_streams(_draws(lam, tau, dist, draws), tau), tie_rng, scale)


def run_study(config: SimConfig, dist: ValuationDistribution) -> ObservedDataset:
    """Generate K independent auctions on independent RNG substreams.

    Reserve-price ties (inevitable under a constant reserve policy) are
    broken with Uniform(0, 0.01) jitter on a dedicated substream."""
    def stream(k):   # SeedSequence(seed).spawn(K + 1)[k], made when needed
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))

    policy = config.reserve_policy
    draws = ((float(policy(rng) if callable(policy) else policy), rng)
             for rng in map(stream, range(config.K)))
    return simulate_auctions(config.lam, config.tau, dist, draws, stream(config.K), 0.01)
