"""Reference computations the benchmark checks the program against.

Each is made apart from ``secondprice``: the arrival-rate moment is the
exact Poisson series, the objective is written from its definition on
the pooled prices, and the batch count is a direct search.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats

from inputs import GAMMA_RATE, GAMMA_SHAPE

TRUE_CDF = stats.gamma(GAMMA_SHAPE, scale=1.0 / GAMMA_RATE)
# Four times the mean KS distance of the fitted CDF to the truth (0.024)
# for gamma(10, 2) at K=1000 and lambda*tau=100, the paper's setting.
KS_TOL = 4.0 * 0.024


def mean_jumps(x: float) -> float:
    """E[2(H_N - 1); N >= 2] for N ~ Poisson(x), summed term by term."""
    if x <= 0.0:
        return 0.0
    n = np.arange(0, int(x + 12.0 * math.sqrt(x) + 40.0))
    log_pmf = n * math.log(x) - x - special.gammaln(n + 1.0)
    inv = np.where(n >= 2, 1.0 / np.maximum(n, 1), 0.0)
    return float(np.sum(np.exp(log_pmf) * 2.0 * np.cumsum(inv)))


def invert_mean_jumps(y: float) -> float:
    """The x with mean_jumps(x) = y, by bracketing and Brent's method."""
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while mean_jumps(hi) < y:
        hi *= 2.0
    return optimize.brentq(lambda x: mean_jumps(x) - y, 1e-12, hi, xtol=1e-12, rtol=1e-14)


def lambda_ref(auctions, low_reserve, tau: float) -> float:
    """Arrival rate from the mean jump count of the low-reserve auctions."""
    y = float(np.mean([auctions[k].m for k in low_reserve]))
    return invert_mean_jumps(y) / tau


def objective(auctions, lam: float, cdf) -> float:
    """Profile log-likelihood of a CDF on the pooled prices.

    Every price (reserve or jump) carries the time it stood as the
    standing price.  With G = 1 - F and G(z-) its value at the previous
    pooled price, the objective is
    sum_final ln G(p-) + sum_jump ln(G(x-) - G(x)) - lam * sum_all t G(z).
    """
    price, held, jump, final = [], [], [], []
    for a in auctions:
        m = a.m
        tail = max(0.0, a.duration - float(np.sum(a.waits)))
        price.append(a.reserve)
        held.append(a.waits[0] if m else a.duration)
        jump.append(False)
        final.append(False)
        for i in range(m):
            price.append(a.prices[i])
            held.append(a.waits[i + 1] if i + 1 < m else tail)
            jump.append(True)
            final.append(i == m - 1)
    order = np.argsort(price, kind="stable")
    z = np.asarray(price)[order]
    held = np.asarray(held)[order]
    jump = np.asarray(jump)[order]
    final = np.asarray(final)[order]
    F = np.asarray(cdf(z), dtype=float)
    F_prev = np.concatenate(([0.0], F[:-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (np.sum(np.log1p(-F_prev[final]))
               + np.sum(np.log(F[jump] - F_prev[jump]))
               - lam * np.sum(held * (1.0 - F)))
    return float(val) if np.isfinite(val) else -math.inf


def ks_to_truth(cdf, knots) -> float:
    """sup |F_hat - F_true| over the estimate's knots and a fine grid
    reaching far into the upper tail of the true distribution."""
    top = float(TRUE_CDF.ppf(1.0 - 1e-12))
    grid = np.unique(np.concatenate((np.asarray(knots, dtype=float),
                                     np.linspace(0.0, top, 4001))))
    return float(np.max(np.abs(np.asarray(cdf(grid)) - TRUE_CDF.cdf(grid))))


def batch_count(alpha: float, delta: float) -> int:
    """Smallest B with (1/2 + delta)^B + (1/2 - delta)^B <= alpha."""
    B = 1
    while (0.5 + delta) ** B + (0.5 - delta) ** B > alpha:
        B += 1
    return B


def check_curve(values) -> list[str]:
    """A CDF's values must be non-decreasing and lie in [0, 1]."""
    v = np.asarray(values, dtype=float)
    bad = []
    if np.any(np.diff(v) < -1e-12):
        bad.append("fitted CDF decreases")
    if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
        bad.append(f"fitted CDF leaves [0, 1]: [{v.min()}, {v.max()}]")
    return bad
