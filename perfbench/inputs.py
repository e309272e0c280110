"""Benchmark inputs made by the benchmark's own numpy generator.

Nothing here calls ``secondprice``: the auctions are drawn and replayed
with plain numpy, then written in the program's canonical dataset format
and its bid-log format.  A change to the random streams of
``secondprice.simulate`` therefore leaves these inputs unchanged.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

GAMMA_SHAPE, GAMMA_RATE = 10.0, 2.0


@dataclass
class Auction:
    """One auction as the benchmark expects the program to see it."""

    reserve: float
    duration: float
    prices: np.ndarray   # standing-price jumps, ascending
    waits: np.ndarray    # time since the previous jump (or the start)
    sold: bool

    @property
    def m(self) -> int:
        return len(self.prices)


def replay(reserve: float, duration: float, times, bids) -> Auction:
    """Second-price replay of a chronological bid stream: the standing
    price is the second-highest of {reserve} and the bids so far, and a
    jump is recorded whenever it strictly rises."""
    times = np.asarray(times, dtype=float)
    bids = np.asarray(bids, dtype=float)
    top = reserve
    second = reserve
    prices, jump_times = [], []
    for t, b in zip(times, bids):
        new_second = max(second, min(b, top))
        top = max(top, b)
        if new_second > second:
            prices.append(float(new_second))
            jump_times.append(float(t))
        second = new_second
    waits = np.diff(np.asarray(jump_times, dtype=float), prepend=0.0)
    return Auction(float(reserve), float(duration), np.asarray(prices, dtype=float),
                   waits, bool(np.any(bids > reserve)))


def paper_auctions(rng: np.random.Generator, K: int, lam: float,
                   tau: float) -> list[Auction]:
    """Poisson(lam) bidder arrivals over [0, tau], gamma(10, 2)
    valuations, and distinct reserves drawn from Uniform(0, 0.01)."""
    out = []
    for _ in range(K):
        n = rng.poisson(lam * tau)
        times = np.sort(rng.uniform(0.0, tau, n))
        vals = rng.gamma(GAMMA_SHAPE, 1.0 / GAMMA_RATE, n)
        out.append(replay(rng.uniform(0.0, 0.01), tau, times, vals))
    return out


def write_dataset(path, auctions: list[Auction]) -> None:
    """The program's canonical dataset file: one auction row, then one
    row per standing-price jump, floats written with repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "auction", "reserve_or_price", "duration_or_wait", "sold"])
        for k, a in enumerate(auctions):
            w.writerow(["auction", k, repr(a.reserve), repr(a.duration), int(a.sold)])
            for x, t in zip(a.prices, a.waits):
                w.writerow(["jump", k, repr(float(x)), repr(float(t)), ""])


@dataclass
class BidLog:
    """A synthetic bid log and the dataset its cleaning must produce."""

    rows: list            # (auctionid, bid, bidtime, bidder, bidderrate, openbid, price)
    expected: list        # Auction per auction id that has rows, in id order
    low_reserve: list     # indices into ``expected`` with a near-zero reserve
    duration: float


def bid_log(rng: np.random.Generator, K: int, lam_per_day: float,
            days: float) -> BidLog:
    """Thin auctions over ``days``: even auctions open near zero, odd
    ones open at Uniform(1, 5).  Each bidder's valuation is gamma(10, 2);
    about a third of the bidders first bid a lower amount and raise it
    later.  Bids at or below the opening bid are not placed, as on the
    auction site, so an auction with no placed bid has no rows."""
    rows, expected, low = [], [], []
    for k in range(K):
        openbid = rng.uniform(0.0, 0.005) if k % 2 == 0 else rng.uniform(1.0, 5.0)
        n = rng.poisson(lam_per_day * days)
        arrive = rng.uniform(0.0, days, n)
        vals = rng.gamma(GAMMA_SHAPE, 1.0 / GAMMA_RATE, n)
        raises = rng.uniform(0.0, 1.0, n) < 1.0 / 3.0
        first = vals * rng.uniform(0.5, 0.95, n)
        later = arrive + rng.uniform(0.0, 1.0, n) * (days - arrive)
        rate = rng.integers(0, 500, n)
        mine = []
        for j in range(n):
            bidder = f"a{k + 1}b{j}"
            if raises[j]:
                mine.append((float(first[j]), float(arrive[j]), bidder, int(rate[j])))
                mine.append((float(vals[j]), float(later[j]), bidder, int(rate[j])))
            else:
                mine.append((float(vals[j]), float(arrive[j]), bidder, int(rate[j])))
        mine = sorted((r for r in mine if r[0] > openbid), key=lambda r: r[1])
        if not mine:
            continue
        last = {}
        for bid, t, bidder, _ in mine:
            last[bidder] = (t, bid)
        kept = sorted(last.values())
        if k % 2 == 0:
            low.append(len(expected))
        auction = replay(openbid, days, [t for t, _ in kept], [b for _, b in kept])
        expected.append(auction)
        price = float(auction.prices[-1]) if auction.m else float(openbid)
        rows += [(k + 1, bid, t, bidder, r, float(openbid), price)
                 for bid, t, bidder, r in mine]
    return BidLog(rows, expected, low, days)


def write_bid_log(path, log: BidLog) -> None:
    """The bid-log schema the program ingests; ``price`` is the final
    standing price of the cleaned auction."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["auctionid", "bid", "bidtime", "bidder", "bidderrate", "openbid", "price"])
        for aid, bid, t, bidder, rate, openbid, price in log.rows:
            w.writerow([aid, repr(bid), repr(t), bidder, rate, repr(openbid), repr(price)])
