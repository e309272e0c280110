"""Independent reference implementations used to verify the library:
arrival times summed one gap at a time, a per-bid standing-price state
machine, per-auction reserve jitter, a median-bias replicate drawn one
generator call at a time, the initial estimate and the pooled
order structures built record by record, a direct-definition
log-likelihood, a brute-force coordinate curvature weight, and an
exhaustive grid search over the survival-ratio box."""

import math

import numpy as np

from secondprice import AuctionRecord, ObservedDataset


def naive_arrival_times(gaps, tau):
    """Arrival times from inter-arrival gaps added one at a time: every
    arrival at or before tau, in order."""
    times, t = [], 0.0
    for gap in gaps:
        t += gap
        if t > tau:
            break
        times.append(t)
    return times


def naive_replay(reserve, duration, times, bids):
    """Replay a bid stream one bid at a time.

    A bid at or below the standing price is not placed.  The first bid
    above the reserve becomes the hidden top bid and leaves the price at
    the reserve; every later placed bid sets the standing price to the
    second-highest placed bid (reserve included), and a jump is recorded
    iff that strictly raised it.  The auction sells iff a bid was placed.
    """
    second, top = reserve, None
    jump_prices, jump_times = [], []
    for t, b in zip(times, bids):
        b = float(b)
        if b <= second:
            continue
        if top is None:
            top = b
            continue
        new_second = min(b, top)
        top = max(b, top)
        if new_second > second:
            jump_prices.append(new_second)
            jump_times.append(float(t))
        second = new_second
    waits = [t - s for s, t in zip([0.0] + jump_times, jump_times)]
    return AuctionRecord(reserve, duration, tuple(zip(jump_prices, waits)),
                         top is not None)


def naive_jittered_reserves(auctions, rng, scale=0.01):
    """The reserves tie-breaking must produce: one scalar Uniform(0, cap)
    draw per auction, in auction order, where cap is ``scale`` or half the
    gap from the reserve to the first jump price, whichever is smaller."""
    out = []
    for a in auctions:
        cap = scale if not a.jumps else min(scale, 0.5 * (a.jumps[0][0] - a.reserve))
        out.append(a.reserve + rng.uniform(0.0, cap))
    return out


def naive_profile_replicate(lam, tau, reserves, rng, scale):
    """A median-bias replicate from one generator, call by call.  For each
    reserve in turn: blocks of max(16, floor(lam*tau + 6*sqrt(lam*tau) +
    10)) Exponential gaps of mean 1/lam, each block's cumulative sum
    continued from the last arrival until one passes tau, then
    ``rng.uniform(0.0, 1.0, n)`` valuations for the n arrivals at or
    before tau, replayed bid by bid; then the same generator's reserve
    jitter of at most ``scale``."""
    block = max(16, int(lam * tau + 6 * math.sqrt(lam * tau) + 10))
    records = []
    for reserve in reserves:
        times = np.cumsum(rng.exponential(1.0 / lam, block))
        while times[-1] <= tau:
            times = np.concatenate((times, times[-1] + np.cumsum(rng.exponential(1.0 / lam,
                                                                                 block))))
        times = times[times <= tau]
        records.append(naive_replay(reserve, tau, times, rng.uniform(0.0, 1.0, len(times))))
    jittered = naive_jittered_reserves(records, rng, scale)
    return ObservedDataset(tuple(AuctionRecord(r, tau, a.jumps, a.sold)
                                 for r, a in zip(jittered, records)), tau)


def naive_initial_estimate(dataset, selection):
    """The continuous initial estimate from the auction records.

    Over the low-reserve auctions with a jump: the first-price estimate
    at x is 1 - sqrt(1 - i/n), i of the n first jump prices being at or
    below x; p1 and p2 are the largest and smallest final price; c is the
    largest first jump price at or below min(p1, p2) (0 if none); then a
    line from the estimate at c to 1 at p1, and (0, 0) in front.
    Returns ((p1, p2, c), knots, values).
    """
    auctions = dataset.auctions
    sold = [auctions[k] for k in sorted(selection.V) if auctions[k].jumps]
    firsts = sorted(a.jumps[0][0] for a in sold)
    finals = [a.final_price for a in sold]
    n = len(firsts)
    p1, p2 = max(finals), min(finals)
    c = max([x for x in firsts if x <= min(p1, p2)], default=0.0)

    def f_fp(x):
        return 1.0 - math.sqrt(1.0 - sum(f <= x for f in firsts) / n)

    fc = f_fp(c)
    knots = sorted({x for x in firsts if x <= c} | {c, p1})
    values = [f_fp(x) if x <= c else fc + (1.0 - fc) / (p1 - c) * (x - c)
              for x in knots]
    if knots[0] > 0.0:
        knots, values = [0.0] + knots, [0.0] + values
    return (p1, p2, c), np.array(knots), np.array(values)


def naive_pooled(auctions):
    """The pooled order structures from their definitions, auction by
    auction.  z holds every reserve and jump price in ascending order and
    xbar the jump prices; S and Sbar are the 1-based ranks in xbar and in
    z of the final prices of the auctions with a jump; Ks holds the
    indices of the sold auctions; l counts the jump prices at or below
    each z_i, and qsize the final prices at or above it."""
    z = sorted([a.reserve for a in auctions] + [x for a in auctions for x in a.prices])
    xbar = sorted(x for a in auctions for x in a.prices)
    finals = [a.final_price for a in auctions if a.jumps]
    return dict(xbar=np.array(xbar),
                S=frozenset(xbar.index(x) + 1 for x in finals),
                Sbar=frozenset(z.index(x) + 1 for x in finals),
                Ks=frozenset(k for k, a in enumerate(auctions) if a.sold),
                l=np.array([sum(x <= zi for x in xbar) for zi in z]),
                qsize=np.array([sum(x >= zi for x in finals) for zi in z]))


def naive_loglik(theta, pooled, lam):
    """Direct evaluation of the objective from its defining sums, without
    the coefficient bookkeeping the library uses."""
    theta = np.asarray(theta, dtype=float)
    val = 0.0
    for i in sorted(pooled.Sbar):
        for j in range(i):
            val += math.log(theta[j])
    val -= lam * float(np.sum(pooled.ttilde * np.cumprod(theta)))
    if pooled.ell > 0:
        for ul in pooled.u:
            val += math.log1p(-theta[ul - 1])
            for j in range(ul - 1):
                val += math.log(theta[j])
    return val


def naive_curvature_weight(theta, i, pooled, lam):
    """Brute-force A_i: lam * sum_{j>=i} ttilde_j * prod_{k<=j, k!=i} theta_k
    (1-based i)."""
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    total = 0.0
    for j in range(i - 1, n):
        prod = 1.0
        for k in range(j + 1):
            if k != i - 1:
                prod *= theta[k]
        total += pooled.ttilde[j] * prod
    return lam * total


def _node_values(grid, coef, jump):
    """Separable part of the objective for one coordinate on the grid."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = coef * np.log(grid) if coef > 0 else np.zeros_like(grid)
        if jump:
            out = out + np.log1p(-grid)
    return out


def _upper_envelope(slopes, intercepts):
    """Upper envelope of the lines y = m*a + b as (slopes, intercepts,
    breakpoints); line i is active for queries in [breakpoints[i-1],
    breakpoints[i])."""
    order = np.lexsort((intercepts, slopes))
    ms = np.asarray(slopes, dtype=float)[order]
    bs = np.asarray(intercepts, dtype=float)[order]
    # for duplicate slopes only the largest intercept can matter
    keep = np.concatenate((ms[1:] != ms[:-1], [True]))
    ms, bs = ms[keep], bs[keep]
    hm, hb, hx = [], [], []
    for m, b in zip(ms, bs):
        while hm:
            # query value where the new (steeper) line overtakes the top
            x = (hb[-1] - b) / (m - hm[-1])
            if hx and x <= hx[-1]:
                hm.pop()
                hb.pop()
                hx.pop()
            else:
                hx.append(x)
                break
        hm.append(m)
        hb.append(b)
    return np.array(hm), np.array(hb), np.array(hx)


def envelope_max(slopes, intercepts, queries):
    """max_i slopes[i]*a + intercepts[i] for each a in queries."""
    finite = np.isfinite(intercepts)
    hm, hb, hx = _upper_envelope(np.asarray(slopes)[finite],
                                 np.asarray(intercepts)[finite])
    idx = np.searchsorted(hx, queries, side="right")
    return hm[idx] * queries + hb[idx]


def _structure(pooled):
    coef = pooled.qsize.astype(float)
    if pooled.ell > 0:
        coef = coef + (pooled.ell - pooled.l)
    is_jump = np.zeros(pooled.n, dtype=bool)
    is_jump[pooled.u - 1] = True
    return coef, is_jump


def _objective_on_product(axes, pooled, lam):
    """Vectorized objective over the cartesian product of per-coordinate
    value arrays, returning (best value, best point)."""
    coef, is_jump = _structure(pooled)
    n = pooled.n
    total = np.zeros(())
    prod = np.ones(())
    for i in range(n):
        shape = [1] * n
        shape[i] = len(axes[i])
        ax = np.asarray(axes[i]).reshape(shape)
        prod = prod * ax
        total = total + _node_values(ax, coef[i], is_jump[i]) \
            - lam * pooled.ttilde[i] * prod
    flat = int(np.argmax(total))
    idx = np.unravel_index(flat, total.shape)
    point = np.array([axes[i][idx[i]] for i in range(n)])
    return float(total[idx]), point


def grid_search_objective(pooled, lam, step=0.005, refine=True):
    """Exhaustive maximization of the objective over the survival-ratio
    box on a regular grid (every coordinate restricted to the grid),
    optionally polished by one local pass at 10x finer resolution around
    the grid argmax (the coarse grid undershoots the optimum by up to
    ~1e-4 purely from discretization).

    The last coordinate enters the objective only through a linear term
    in the running product of the others, so its grid maximization is
    factored out as an upper envelope of lines; the remaining coordinates
    are enumerated by broadcasting.
    """
    n = pooled.n
    coef, is_jump = _structure(pooled)
    grid = np.round(np.arange(0.0, 1.0 + 0.5 * step, step), 10)
    ttilde = pooled.ttilde

    if n == 1:
        vals = _node_values(grid, coef[0], is_jump[0]) - lam * ttilde[0] * grid
        best = float(np.max(vals))
        point = np.array([grid[int(np.argmax(vals))]])
    else:
        total = None
        prod = None
        for i in range(n - 1):
            f = _node_values(grid, coef[i], is_jump[i])
            if total is None:
                total = f - lam * ttilde[i] * grid
                prod = grid.copy()
            else:
                prod = prod[..., None] * grid
                total = total[..., None] + f - lam * ttilde[i] * prod
        f_last = _node_values(grid, coef[n - 1], is_jump[n - 1])
        queries = lam * ttilde[n - 1] * prod.ravel()
        best_last = envelope_max(-grid, f_last, queries).reshape(prod.shape)
        combined = total + best_last
        flat = int(np.argmax(combined))
        idx = np.unravel_index(flat, combined.shape)
        head = [grid[j] for j in idx]
        last_vals = f_last - lam * ttilde[n - 1] * float(prod[idx]) * grid
        point = np.array(head + [grid[int(np.argmax(last_vals))]])
        best = float(combined[idx])

    if refine:
        axes = [np.clip(point[i] + np.arange(-10, 11) * (step / 10.0),
                        0.0, 1.0) for i in range(n)]
        local_best, local_point = _objective_on_product(axes, pooled, lam)
        if local_best > best:
            best, point = local_best, local_point
    return best, point
