"""Generalized-method-of-moments estimation of the bidder arrival rate.

The expected number of standing-price changes in one auction is a
strictly increasing function ``g`` of the thinned-arrival Poisson mean
x.  With N ~ Poisson(x) bidders, E[H_N] = Ein(x) = gamma + ln x + E1(x)
(DLMF 6.2), so g(x) = E[2(H_N - 1); N >= 2] has the closed form
2(gamma + ln x + E1(x) - 1 + e^{-x}), the exact limit of a Monte Carlo
table of the jump count.  E1 is the continued fraction of routine E1XB
in Zhang and Jin, *Computation of Special Functions* (Wiley, 1996), the
branch ``scipy.special.exp1`` takes for x > 1, so no scipy is imported.
``g`` is inverted by bisection inside a doubling bracket down to adjacent
floating-point numbers, evaluating it at every midpoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .model import ObservedDataset, auction_indices

# Below this mean the closed form cancels (its terms are O(ln x) while
# g(x) ~ x^2/2, so at x = 1e-2 only about 11 digits survive), and the
# Poisson series is summed instead; from x = 1 on the closed form is
# good to a few ulp.
_SERIES_BELOW = 1.0
# g grows like 2 ln x, so 2^32 bounds every reachable thinned mean
# (g(2^32) is about 43.5 jumps per auction).
_MAX_DOUBLINGS = 32


def conditional_mean_jumps(n: int) -> float:
    """E[number of standing-price changes | n bidders above the reserve]:
    0 for n <= 1, else 2 * sum_{i=2}^{n} 1/i."""
    if n < 0:
        raise ValidationError("bidder count must be non-negative")
    if n <= 1:
        return 0.0
    return 2.0 * float(np.sum(1.0 / np.arange(2, n + 1)))


# Poisson-series terms e^{-x} x^n / n! * E[jumps | n] for n = 2..20; at
# x = 1 the first omitted term is below 1e-18 of g.
_SERIES_N = np.arange(2, 21)
_SERIES_W = np.array([conditional_mean_jumps(n) / math.factorial(n)
                      for n in _SERIES_N])


def _e1(x: float) -> float:
    """E1(x) for x >= 1 by E1XB's continued fraction, 20 + int(80 / x)
    terms summed from the tail in its order, which for x > 1 equals
    ``scipy.special.exp1`` bit for bit."""
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def g_eval(x: float) -> float:
    """Expected standing-price changes per auction, E[2(H_N - 1); N >= 2]
    for N ~ Poisson(x)."""
    if not x >= 0:
        raise ValidationError("Poisson mean must be non-negative")
    if x < _SERIES_BELOW:
        return float(np.exp(-x) * (x ** _SERIES_N @ _SERIES_W))
    return float(2.0 * (np.euler_gamma + np.log(x) + _e1(x) + np.expm1(-x)))


def g_inverse(y: float) -> float:
    """The Poisson mean x with g(x) = y: the smallest float x with
    g(x) >= y, found by doubling a bracket and bisecting it until its
    ends are adjacent floats."""
    if y < 0:
        raise ValidationError("mean jump count must be non-negative")
    if y == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_DOUBLINGS):
        if g_eval(hi) >= y:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericalError(f"mean jump count {y} is beyond g({hi / 2:g})")
    # g(lo) < y <= g(hi) throughout
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if g_eval(mid) >= y:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def estimate_lambda(dataset: ObservedDataset, low_reserve_set) -> float:
    """Arrival-rate estimate from the mean jump count over auctions with
    negligible reserve prices (F at those reserves is treated as 0).  The
    set is read by the rule of :func:`model.auction_indices`, the one
    ``ObservedDataset.take`` applies: an index array such as
    ``LowReserveSelection.V``, any iterable of integers, or a mask of K
    booleans."""
    idx = auction_indices(low_reserve_set, dataset.K)
    if not idx.size:
        raise NumericalError("low-reserve auction set is empty; relax (q, epsilon)")
    mean_jumps = float(np.mean(dataset.m[idx]))
    return g_inverse(mean_jumps) / dataset.tau
