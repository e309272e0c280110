"""Initial CDF estimator built from final selling prices and first
non-reserve standing prices of low-reserve auctions, spliced and
interpolated, plus the starting parameter vector it induces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import (MonotoneCurve, ObservedDataset, ThetaVector, cdf_to_theta,
                    interpolate)

_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class LowReserveSelection:
    """Auctions whose reserves sit inside the chosen epsilon-window."""

    r_min: float
    q: float
    epsilon: float
    V: frozenset  # 0-based auction indices


@dataclass(frozen=True)
class SpliceAnchors:
    """Splice geometry combining the two partial estimators: p1 is the
    largest non-reserve standing price, p2 the smallest final selling
    price (both over the qualifying low-reserve auctions), c the splice
    point, and bridge_value the level the linear bridge reaches at p1."""

    p1: float
    p2: float
    c: float
    bridge_value: float

    def __post_init__(self):
        if self.c > min(self.p1, self.p2) + 1e-12:
            raise ValidationError("splice point must not exceed min(p1, p2)")
        if not 0.0 <= self.bridge_value <= 1.0:
            raise ValidationError("bridge value must lie in [0, 1]")


def select_low_reserve(dataset: ObservedDataset, q: float,
                       epsilon: float) -> LowReserveSelection:
    """Smallest non-negative r_min whose (r_min - eps, r_min + eps)
    window captures at least a q-fraction of the reserve prices."""
    if not 0.0 < q < 1.0 or epsilon <= 0:
        raise ValidationError("need 0 < q < 1 and epsilon > 0")
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
    return LowReserveSelection(float(best), q, epsilon,
                               frozenset(int(k) for k in np.flatnonzero(inside)))


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


def g_lambda_inverse(y, lambda_r: float, tau: float):
    """Bisection inverse of :func:`g_lambda_cdf` on eta in [0, 1], run
    over every level of ``y`` at once (a scalar ``y`` gives a float).
    Levels at or below 0 map to exactly 0, at or above 1 to exactly 1."""
    y = np.asarray(y, dtype=float)
    lo = np.zeros(y.shape)
    hi = np.ones(y.shape)
    width = 1.0       # every bracket halves in step, so they share a width
    while width > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        below = g_lambda_cdf(mid, lambda_r, tau) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        width *= 0.5
    out = np.where(y <= 0.0, 0.0, np.where(y >= 1.0, 1.0, 0.5 * (lo + hi)))
    return out if out.ndim else float(out)


def _sold_above_reserve(dataset: ObservedDataset, selection: LowReserveSelection):
    ks = np.fromiter(selection.V, np.intp, len(selection.V))
    return ks[dataset.m[ks] > 0]


def estimate_f_sp(dataset: ObservedDataset, selection: LowReserveSelection,
                  lambda_hat: float) -> MonotoneCurve:
    """Selling-price estimator: the inverse selling-price-CDF map applied
    to the empirical CDF of final selling prices over low-reserve
    auctions sold above the reserve."""
    ks = _sold_above_reserve(dataset, selection)
    if not ks.size:
        raise NumericalError(
            "no low-reserve auction sold above its reserve; relax (q, epsilon)")
    prices = np.sort(dataset.final_price[ks])
    n = len(prices)
    values = g_lambda_inverse(np.arange(1, n + 1) / n, lambda_hat, dataset.tau)
    return MonotoneCurve(prices, values, kind="step")


def estimate_f_fp(dataset: ObservedDataset,
                  selection: LowReserveSelection) -> MonotoneCurve:
    """First-price estimator: square-root inversion of the empirical CDF
    of first non-reserve standing prices (the min of the first two
    above-reserve valuations)."""
    ks = _sold_above_reserve(dataset, selection)
    if not ks.size:
        raise NumericalError("no low-reserve auction has a standing-price jump")
    prices = np.sort(dataset.price[dataset.offsets[ks]])
    n = len(prices)
    values = 1.0 - np.sqrt(1.0 - np.arange(1, n + 1) / n)
    return MonotoneCurve(prices, values, kind="step")


def compute_splice_anchors(f_fp: MonotoneCurve,
                           f_sp: MonotoneCurve) -> SpliceAnchors:
    """p1 = largest standing price among the qualifying auctions (the
    largest selling-price knot), p2 = smallest selling-price knot, c =
    largest first-price knot (or 0) at or below min(p1, p2) where the
    first-price estimate does not exceed the bridge target, which is the
    selling-price estimate at p1."""
    p1 = float(f_sp.knots[-1])
    p2 = float(f_sp.knots[0])
    target = float(f_sp(p1))
    ok = (f_fp.knots <= min(p1, p2)) & (f_fp.values <= target)
    c = float(np.max(f_fp.knots[ok], initial=0.0))
    return SpliceAnchors(p1, p2, c, target)


def combine_initial(f_fp: MonotoneCurve, f_sp: MonotoneCurve,
                    anchors: SpliceAnchors):
    """Splice the two partial estimators: first-price estimate below the
    splice point, a linear bridge up to p1, selling-price estimate above.

    Returns ``(step_estimate, continuous_estimate)`` where the continuous
    version is the linear interpolation anchored at (0, 0).
    """
    p1, c = anchors.p1, anchors.c
    fc = float(f_fp(c))
    fp1 = anchors.bridge_value
    knots = np.unique(np.concatenate((f_fp.knots[f_fp.knots <= c], [c, p1],
                                      f_sp.knots[f_sp.knots > p1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        # taken only where c < x <= p1, so never when p1 == c
        bridge = fc + np.divide(fp1 - fc, p1 - c) * (knots - c)
    values = np.where(knots <= c, f_fp(knots),
                      np.where(knots <= p1, bridge, f_sp(knots)))
    step = MonotoneCurve(knots, values, kind="step")
    return step, interpolate(step, anchor_zero=True)


def initial_theta(f_init: MonotoneCurve, z: np.ndarray) -> ThetaVector:
    """Survival-ratio starting values of the continuous initial estimate
    evaluated on the pooled price grid."""
    return cdf_to_theta(np.asarray(f_init(np.asarray(z, dtype=float))))
