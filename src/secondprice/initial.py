"""Initial CDF estimator for low-reserve auctions: the first-price
estimator built from first non-reserve standing prices, joined by a
linear bridge to 1 at the largest final selling price; plus the starting
parameter vector it induces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import MonotoneCurve, ObservedDataset, ThetaVector, cdf_to_theta, union_grid

DEFAULT_Q = 0.25    # the low-reserve fraction a fit selects by default


@dataclass(frozen=True)
class LowReserveSelection:
    """Auctions whose reserves sit inside the chosen epsilon-window:
    ``V`` holds their 0-based indices, ascending, as a read-only array."""

    r_min: float
    q: float
    epsilon: float
    V: np.ndarray


@dataclass(frozen=True)
class SpliceAnchors:
    """Splice geometry of the initial estimate: p1 and p2 are the largest
    and the smallest final selling price over the qualifying low-reserve
    auctions, c the splice point where the first-price estimate hands
    over to the linear bridge that reaches 1 at p1.  Requires
    c <= p2 <= p1."""

    p1: float
    p2: float
    c: float

    def __post_init__(self):
        if self.p2 > self.p1:
            raise ValidationError("p2 must not exceed p1")
        if self.c > self.p2:
            raise ValidationError("splice point must not exceed p2")


def check_window(q: float, epsilon: float = None) -> None:
    """Refuse a low-reserve fraction ``q`` outside (0, 1) or a window
    half-width ``epsilon`` that is not finite and > 0; None stands for
    the default half-width, which always is."""
    if not 0.0 < q < 1.0 or not (epsilon is None or 0.0 < epsilon < math.inf):
        raise ValidationError("need 0 < q < 1 and a finite epsilon > 0")


def select_low_reserve(dataset: ObservedDataset, q: float,
                       epsilon: float) -> LowReserveSelection:
    """Smallest non-negative r_min whose (r_min - eps, r_min + eps)
    window captures at least a q-fraction of the reserve prices."""
    check_window(q, epsilon)
    rs = np.sort(dataset.reserve)
    K = len(rs)
    m = max(1, math.ceil(q * K))
    # window i holds rs[i : i + m]; v is the smallest centre it admits
    lo, hi = rs[:K - m + 1], rs[m - 1:]
    v = np.maximum(0.0, np.nextafter(hi - epsilon, np.inf))
    ok = (hi - lo < 2 * epsilon) & (v < lo + epsilon)
    if not ok.any():
        raise NumericalError(
            "no reserve window achieves the requested q-fraction; relax (q, epsilon)")
    best = v[ok].min()
    inside = (dataset.reserve > best - epsilon) & (dataset.reserve < best + epsilon)
    V = np.flatnonzero(inside)
    V.flags.writeable = False
    return LowReserveSelection(float(best), q, epsilon, V)


def g_lambda_cdf(eta, lambda_r: float, tau: float):
    """Conditional CDF of the final selling price (on the probability
    scale eta = F_r(x)) given at least two above-reserve bidders.

    Evaluated in an exponent-shifted form that is stable for large
    lambda_r * tau and exact at eta = 0 and eta = 1.  ``eta`` may be a
    scalar (a float is returned) or an array.
    """
    s = lambda_r * tau
    if s <= 0:
        raise ValidationError("lambda_r * tau must be positive")
    eta = np.asarray(eta, dtype=float)
    es = np.exp(-s)
    e = np.exp(s * (eta - 1.0))
    num = s * (1.0 - eta) * (e - es) + e - (s * eta + 1.0) * es
    out = num / (1.0 - es - s * es)
    return out if out.ndim else float(out)


def _sold_above_reserve(dataset: ObservedDataset, selection: LowReserveSelection):
    return selection.V[dataset.m[selection.V] > 0]


def estimate_f_fp(dataset: ObservedDataset,
                  selection: LowReserveSelection) -> MonotoneCurve:
    """First-price estimator: square-root inversion of the empirical CDF
    of first non-reserve standing prices (the min of the first two
    above-reserve valuations), linear between the sorted prices and
    anchored at (0, 0)."""
    ks = _sold_above_reserve(dataset, selection)
    if not ks.size:
        raise NumericalError("no low-reserve auction has a standing-price jump")
    prices = np.sort(dataset.price[dataset.offsets[ks]])
    n = len(prices)
    values = 1.0 - np.sqrt(1.0 - np.arange(1, n + 1) / n)
    return MonotoneCurve.from_zero(prices, values)


def compute_splice_anchors(dataset: ObservedDataset,
                           selection: LowReserveSelection,
                           f_fp: MonotoneCurve) -> SpliceAnchors:
    """p1 = largest and p2 = smallest final selling price over the
    low-reserve auctions sold above the reserve, c = largest first-price
    knot (or 0) at or below p2; the bridge reaches 1 at p1."""
    prices = dataset.final_price[_sold_above_reserve(dataset, selection)]
    if not prices.size:
        raise NumericalError(
            "no low-reserve auction sold above its reserve; relax (q, epsilon)")
    p1, p2 = float(prices.max()), float(prices.min())
    c = float(np.max(f_fp.knots[f_fp.knots <= p2], initial=0.0))
    return SpliceAnchors(p1, p2, c)


def combine_initial(f_fp: MonotoneCurve,
                    anchors: SpliceAnchors) -> MonotoneCurve:
    """The continuous initial estimate: the first-price estimate up to
    the splice point, then a linear bridge to 1 at p1."""
    p1, c = anchors.p1, anchors.c
    fc = float(f_fp(c))
    knots = union_grid((f_fp.knots[f_fp.knots <= c], [c, p1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        # taken only where c < x, so never when p1 == c
        bridge = fc + np.divide(1.0 - fc, p1 - c) * (knots - c)
    values = np.where(knots <= c, f_fp(knots), bridge)
    return MonotoneCurve(knots, values)


def initial_theta(f_init: MonotoneCurve, z: np.ndarray) -> ThetaVector:
    """Survival-ratio starting values of the continuous initial estimate
    evaluated on the pooled price grid."""
    return cdf_to_theta(np.asarray(f_init(np.asarray(z, dtype=float))))
