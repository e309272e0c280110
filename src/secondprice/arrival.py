"""Generalized-method-of-moments estimation of the bidder arrival rate.

The expected number of standing-price changes in one auction is a
strictly increasing function ``g`` of the thinned-arrival Poisson mean
x.  With N ~ Poisson(x) bidders, E[H_N] = Ein(x) = gamma + ln x + E1(x)
(DLMF 6.2), so g(x) = E[2(H_N - 1); N >= 2] has the closed form
2(gamma + ln x + E1(x) - 1 + e^{-x}), the exact limit of a Monte Carlo
table of the jump count.  E1 is the continued fraction of routine E1XB
in Zhang and Jin, *Computation of Special Functions* (Wiley, 1996), the
branch ``scipy.special.exp1`` takes for x > 1, so no scipy is imported.
``g`` is inverted by bisection inside a doubling bracket, down to
adjacent floating-point numbers.  A Newton root of g(x) = y settles every
midpoint farther from it than a small relative guard without evaluating
g there; since g is good to a few ulp and its relative slope x g'(x) / g(x)
stays above about 0.04 up to 2^32, g(mid) - y has a known sign at such a
midpoint, so the bisection visits the same midpoints and returns the
same float as one that evaluates g at each.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .model import ObservedDataset

# Below this mean the closed form cancels (its terms are O(ln x) while
# g(x) ~ x^2/2, so at x = 1e-2 only about 11 digits survive), and the
# Poisson series is summed instead; from x = 1 on the closed form is
# good to a few ulp.
_SERIES_BELOW = 1.0
# g grows like 2 ln x, so 2^32 bounds every reachable thinned mean
# (g(2^32) is about 43.5 jumps per auction).
_MAX_DOUBLINGS = 32
# relative distance from the Newton root beyond which a midpoint is
# compared with the root instead of evaluated: g(mid) - y then exceeds
# g's rounding more than 1e5 times over
_ROOT_GUARD = 1e-9
# Newton stops after a step of relative size s <= _NEWTON_RTOL, which
# leaves an error of about s^2 |g''| x / 2g' <= s^2 / 2 (the bound holds
# for every x), at most a twentieth of the guard
_NEWTON_RTOL = 1e-5
_NEWTON_STEPS = 50
# below this y the root is so small that g nears the subnormals, where
# its few-ulp accuracy does not hold
_NEWTON_MIN_Y = 1e-290


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


def _g_slope(x: float) -> float:
    """g'(x) = 2(1 - e^{-x}(1 + x)) / x, from the Poisson series below
    ``_SERIES_BELOW``, where that form cancels."""
    if x < _SERIES_BELOW:
        return float(np.exp(-x) * ((x ** (_SERIES_N - 1) * (_SERIES_N - x)) @ _SERIES_W))
    return 2.0 * (1.0 - math.exp(-x) * (1.0 + x)) / x


def _newton_root(y: float, lo: float, hi: float, g_lo: float, g_hi: float):
    """(root, reach): the x in [lo, hi] with g(x) = y by Newton's method
    from sqrt(2y), and the distance from it beyond which a midpoint is
    decided by comparison; (lo, inf) when Newton does not converge.
    ``g_lo`` and ``g_hi`` are g at the ends of the bracket."""
    if y < _NEWTON_MIN_Y:
        return lo, math.inf
    x = min(max(math.sqrt(2.0 * y), lo), hi)
    for _ in range(_NEWTON_STEPS):
        # an iterate clamped to an end of the bracket finds g known there
        gx = g_lo if x == lo else g_hi if x == hi else g_eval(x)
        slope = _g_slope(x)
        if not slope > 0.0:
            break
        step = (gx - y) / slope
        x = min(max(x - step, lo), hi)
        if abs(step) <= _NEWTON_RTOL * x:
            return x, _ROOT_GUARD * x
    return lo, math.inf


def g_inverse(y: float) -> float:
    """The Poisson mean x with g(x) = y: the smallest float x with
    g(x) >= y, found by doubling a bracket and bisecting it until its
    ends are adjacent floats, evaluating g only at the midpoints near
    its Newton root."""
    if y < 0:
        raise ValidationError("mean jump count must be non-negative")
    if y == 0:
        return 0.0
    lo, hi, g_lo = 0.0, 1.0, 0.0
    for _ in range(_MAX_DOUBLINGS):
        g_hi = g_eval(hi)
        if g_hi >= y:
            break
        lo, hi, g_lo = hi, 2.0 * hi, g_hi
    else:
        raise NumericalError(f"mean jump count {y} is beyond g({hi / 2:g})")
    root, reach = _newton_root(y, lo, hi, g_lo, g_hi)
    # g(lo) < y <= g(hi) throughout; g is evaluated only within reach of the root
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if mid > root + reach or (mid >= root - reach and g_eval(mid) >= y):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def estimate_lambda(dataset: ObservedDataset, low_reserve_set) -> float:
    """Arrival-rate estimate from the mean jump count over auctions with
    negligible reserve prices (F at those reserves is treated as 0), given
    as an index array such as ``LowReserveSelection.V`` or any iterable."""
    idx = np.fromiter(low_reserve_set, np.intp)
    if not idx.size:
        raise NumericalError("low-reserve auction set is empty; relax (q, epsilon)")
    mean_jumps = float(np.mean(dataset.m[idx]))
    return g_inverse(mean_jumps) / dataset.tau
