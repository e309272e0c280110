"""Synthetic auction generation: Poisson bidder arrivals, the valuation
distributions used in the simulation study, and ``replay_bids``, the one
standing-price rule (running second maximum of the reserve and the bids)
that the simulator, bid-log ingestion and bid-log export all share.

Gamma and beta valuations are drawn with the generator's own
``standard_gamma`` and ``beta``.  Their CDFs and quantiles are the
regularized incomplete gamma and beta functions of ``scipy.special``
and their inverses, their densities are closed forms, and Pareto's are
power laws.  These are the formulas ``scipy.stats`` evaluates, with the
same argument scaling, so the draws and the CDFs equal its ``rvs`` and
``cdf`` bit for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special

from .errors import ValidationError
from .model import AuctionRecord, ObservedDataset, break_ties, has_ties

_KINDS = ("uniform", "piecewise_uniform", "pareto", "gamma", "beta", "table")


@dataclass(frozen=True)
class ValuationDistribution:
    """Population valuation distribution used to draw bids.

    Supported kinds: ``uniform(a, b)``, ``piecewise_uniform`` (weighted
    mixture of uniforms), ``pareto(scale, shape)``, ``gamma(shape,
    rate)``, ``beta(a, b)`` and ``table`` (inverse-CDF knots).  Pareto is
    exposed with explicit (scale, shape) naming; both values are
    configurable.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}; "
                                  f"expected one of {', '.join(_KINDS)}")

    # -- constructors -------------------------------------------------
    @staticmethod
    def uniform(a: float, b: float) -> "ValuationDistribution":
        if not a < b:
            raise ValidationError("uniform requires a < b")
        if a < 0:
            raise ValidationError("valuations must be non-negative")
        return ValuationDistribution("uniform", (float(a), float(b)))

    @staticmethod
    def piecewise_uniform(pieces) -> "ValuationDistribution":
        """pieces: iterable of (a, b, weight); weights must sum to 1."""
        pieces = tuple((float(a), float(b), float(w)) for a, b, w in pieces)
        if any(a >= b or a < 0 or w <= 0 for a, b, w in pieces):
            raise ValidationError("each piece needs 0 <= a < b and weight > 0")
        if abs(sum(w for _, _, w in pieces) - 1.0) > 1e-9:
            raise ValidationError("piece weights must sum to 1")
        return ValuationDistribution("piecewise_uniform", pieces)

    @staticmethod
    def pareto(scale: float, shape: float) -> "ValuationDistribution":
        if scale <= 0 or shape <= 0:
            raise ValidationError("pareto requires scale > 0 and shape > 0")
        return ValuationDistribution("pareto", (float(scale), float(shape)))

    @staticmethod
    def gamma(shape: float, rate: float) -> "ValuationDistribution":
        if shape <= 0 or rate <= 0:
            raise ValidationError("gamma requires shape > 0 and rate > 0")
        return ValuationDistribution("gamma", (float(shape), float(rate)))

    @staticmethod
    def beta(a: float, b: float) -> "ValuationDistribution":
        if a <= 0 or b <= 0:
            raise ValidationError("beta requires positive shape parameters")
        return ValuationDistribution("beta", (float(a), float(b)))

    @staticmethod
    def table(xs, ps) -> "ValuationDistribution":
        """Inverse-CDF knots: F(xs[i]) = ps[i]; linear in between."""
        xs = tuple(float(x) for x in xs)
        ps = tuple(float(p) for p in ps)
        if len(xs) != len(ps) or len(xs) < 2:
            raise ValidationError("table needs >= 2 matching knots")
        if any(np.diff(xs) <= 0) or any(np.diff(ps) < 0):
            raise ValidationError("table knots must be increasing")
        if ps[0] != 0.0 or ps[-1] != 1.0 or xs[0] < 0:
            raise ValidationError("table must span probabilities 0..1 over x >= 0")
        return ValuationDistribution("table", (xs, ps))

    # -- API ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size)
        if self.kind == "piecewise_uniform":
            w = np.array([p[2] for p in self.params])
            idx = rng.choice(len(self.params), size=size, p=w / w.sum())
            lo = np.array([p[0] for p in self.params])[idx]
            hi = np.array([p[1] for p in self.params])[idx]
            return rng.uniform(lo, hi)
        if self.kind == "pareto":
            scale, shape = self.params
            return scale * rng.uniform(0.0, 1.0, size) ** (-1.0 / shape)
        if self.kind == "table":
            xs, ps = self.params
            return np.interp(rng.uniform(0.0, 1.0, size), ps, xs)
        if self.kind == "gamma":
            shape, rate = self.params
            return rng.standard_gamma(shape, size) * (1.0 / rate)
        a, b = self.params
        return rng.beta(a, b, size)

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
        if self.kind == "table":
            xs, ps = self.params
            return np.interp(x, xs, ps)
        if self.kind == "pareto":
            scale, shape = self.params
            return 1.0 - np.maximum(x / scale, 1.0) ** -shape
        if self.kind == "gamma":
            shape, rate = self.params
            return special.gammainc(shape, np.maximum(x, 0.0) / (1.0 / rate))
        a, b = self.params
        return special.betainc(a, b, np.clip(x, 0.0, 1.0))

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        if self.kind == "piecewise_uniform":
            out = np.zeros_like(x, dtype=float)
            for a, b, w in self.params:
                out = out + np.where((x >= a) & (x <= b), w / (b - a), 0.0)
            return out
        if self.kind == "table":
            xs, ps = self.params
            slopes = np.diff(ps) / np.diff(xs)
            idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
            return np.where((x >= xs[0]) & (x < xs[-1]), slopes[idx], 0.0)
        # each density is evaluated on its support only, then zeroed
        # outside it (NaN stays NaN)
        if self.kind == "pareto":
            scale, shape = self.params
            y = x / scale
            return np.where(y < 1.0, 0.0,
                            shape * np.maximum(y, 1.0) ** (-shape - 1.0) / scale)
        if self.kind == "gamma":
            shape, rate = self.params
            y = np.maximum(x, 0.0) / (1.0 / rate)
            # the density vanishes as y -> inf, where xlogy(shape - 1, y) - y
            # would be inf - inf
            y_fin = np.where(y == np.inf, 0.0, y)
            log_pdf = (special.xlogy(shape - 1.0, y_fin) - y_fin
                       - special.gammaln(shape))
            return np.where((x < 0.0) | (y == np.inf), 0.0,
                            np.exp(log_pdf) / (1.0 / rate))
        a, b = self.params
        y = np.clip(x, 0.0, 1.0)
        log_pdf = (special.xlogy(a - 1.0, y) + special.xlog1py(b - 1.0, -y)
                   - special.betaln(a, b))
        return np.where((x < 0.0) | (x > 1.0), 0.0, np.exp(log_pdf))

    def support(self) -> tuple[float, float]:
        """(lo, hi) with hi chosen so that F(hi) >= 1 - 1e-9 for
        unbounded distributions."""
        if self.kind == "uniform":
            return self.params
        if self.kind == "piecewise_uniform":
            return (min(p[0] for p in self.params), max(p[1] for p in self.params))
        if self.kind == "table":
            xs, _ = self.params
            return (xs[0], xs[-1])
        q = 1.0 - 1e-9
        if self.kind == "pareto":
            scale, shape = self.params
            return (scale, (1.0 - q) ** (-1.0 / shape) * scale)
        if self.kind == "gamma":
            shape, rate = self.params
            return (0.0, float(special.gammaincinv(shape, q) * (1.0 / rate)))
        a, b = self.params
        return (0.0, float(special.betaincinv(a, b, q)))


ReservePolicy = Union[float, Callable[[np.random.Generator], float]]


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
        if not rates_ok or self.K < 1:
            raise ValidationError(
                "SimConfig requires finite lam > 0, finite tau > 0, K >= 1")


def replay_bids(reserve: float, duration: float, times, bids) -> AuctionRecord:
    """Replay a chronological (time, bid) stream and return its record.

    The standing price is the running second maximum of the reserve and
    the bids so far, and a jump is recorded wherever it strictly
    increases.  A bid at or below the standing price cannot change that
    maximum, so this is also the path of the placed bids.  The auction
    sells iff some bid exceeds the reserve.
    """
    times = np.asarray(times, dtype=float)
    bids = np.asarray(bids, dtype=float)
    tops = np.maximum.accumulate(np.concatenate(([reserve], bids)))
    # maximum propagates NaN, so the last top is finite iff no bid is NaN
    # or +inf (a -inf bid is never placed, and AuctionRecord rejects a
    # non-finite jump time)
    if times.shape != bids.shape or not math.isfinite(tops[-1]):
        raise ValidationError("reserve and bids must be finite, with one time per bid")
    sec = np.maximum.accumulate(np.concatenate(([reserve],
                                                np.minimum(bids, tops[:-1]))))
    jump_idx = np.flatnonzero(sec[1:] > sec[:-1])
    waits = np.diff(times[jump_idx], prepend=0.0)
    return AuctionRecord(reserve, duration, tuple(zip(sec[1:][jump_idx], waits)),
                         bool(tops[-1] > reserve))


def _arrival_times(lam: float, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Exponential(lam) inter-arrival times accumulated until tau."""
    times = np.empty(0)
    total = 0.0
    block = max(16, int(lam * tau + 6 * np.sqrt(lam * tau) + 10))
    while True:
        gaps = rng.exponential(1.0 / lam, block)
        new = total + np.cumsum(gaps)
        times = np.concatenate((times, new))
        total = times[-1]
        if total > tau:
            break
    return times[times <= tau]


def run_auction(lam: float, tau: float, reserve: float,
                dist: ValuationDistribution, rng: np.random.Generator,
                return_trace: bool = False):
    """Simulate a single auction; optionally return the full bid trace."""
    times = _arrival_times(lam, tau, rng)
    bids = dist.sample(rng, len(times))
    record = replay_bids(reserve, tau, times, bids)
    if return_trace:
        return record, (times, bids)
    return record


def run_study(config: SimConfig, dist: ValuationDistribution) -> ObservedDataset:
    """Generate K independent auctions on independent RNG substreams.

    Reserve-price ties (inevitable under a constant reserve policy) are
    broken with Uniform(0, 0.01) jitter on a dedicated substream."""
    streams = np.random.SeedSequence(config.seed).spawn(config.K + 1)
    auctions = []
    for k in range(config.K):
        rng = np.random.default_rng(streams[k])
        if callable(config.reserve_policy):
            reserve = float(config.reserve_policy(rng))
        else:
            reserve = float(config.reserve_policy)
        auctions.append(run_auction(config.lam, config.tau, reserve, dist, rng))
    dataset = ObservedDataset(tuple(auctions), config.tau)
    if has_ties(dataset):
        dataset = break_ties(dataset, np.random.default_rng(streams[-1]))
    return dataset
