"""Domain types, validation, cross-auction pooling, and the
survival-ratio reparametrization of a CDF.

Dataset layout
--------------
:class:`ObservedDataset` stores validated :class:`AuctionRecord` objects
and lays them out once as arrays (see its docstring); every reader
outside this module and ``ingest`` uses the arrays, not the records.

Indexing conventions
--------------------
Rank arrays (``u``, ``S``, ``Sbar``) and the bookkeeping vectors ``l`` and
``qsize`` are 1-based, matching the order-statistic definitions they come
from: ``u[j]`` is the position of the j-th pooled non-reserve standing
price inside ``z`` counting from 1.  Auction index sets (``Ks``) are
plain 0-based Python indices into the dataset's auctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import TieError, ValidationError

_TAIL_TOL = 1e-9


@dataclass(frozen=True)
class AuctionRecord:
    """One auction: reserve price, standing-price jumps, sold flag.

    ``jumps`` holds pairs ``(price, wait)`` where ``wait`` is the time
    elapsed since the previous standing-price change (or since the start
    of the auction, for the first jump).
    """

    reserve: float
    duration: float
    jumps: tuple[tuple[float, float], ...]
    sold: bool

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple((float(x), float(t)) for x, t in self.jumps))
        violations = []
        if self.reserve < 0:
            violations.append(f"reserve {self.reserve} is negative")
        if self.duration <= 0:
            violations.append(f"duration {self.duration} is not positive")
        prices = [x for x, _ in self.jumps]
        waits = [t for _, t in self.jumps]
        if not all(map(math.isfinite, (self.reserve, self.duration, *prices, *waits))):
            violations.append("reserve, duration, jump prices and waits must be finite")
        if prices:
            if prices[0] <= self.reserve:
                violations.append(
                    f"first jump price {prices[0]} does not exceed reserve {self.reserve}"
                )
            for a, b in zip(prices, prices[1:]):
                if b <= a:
                    violations.append(f"jump prices not strictly increasing at {a} -> {b}")
                    break
            if any(t <= 0 for t in waits):
                violations.append("non-positive waiting time")
            if sum(waits) > self.duration + _TAIL_TOL * max(self.duration, 1.0):
                violations.append(
                    f"waiting times sum to {sum(waits)} > duration {self.duration}"
                )
            if not self.sold:
                violations.append("auction has standing-price jumps but is marked unsold")
        if violations:
            raise ValidationError(violations)

    @property
    def m(self) -> int:
        """Number of standing-price changes."""
        return len(self.jumps)

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.jumps)

    @property
    def waits(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.jumps)

    @property
    def final_price(self) -> float:
        """Final selling price (the reserve when there are no jumps)."""
        return self.jumps[-1][0] if self.jumps else self.reserve


@dataclass(frozen=True)
class ObservedDataset:
    """K independent auctions of the same product with a common duration.

    ``auctions`` and ``tau`` are the data (they alone take part in ``==``
    and ``hash``); the read-only arrays below are their layout, built once
    at construction:

    - ``reserve[K]``, ``sold[K]``, and ``tail[K]``, the time from the last
      standing-price change to the close (``tau`` if there is none);
    - ``price[M]`` and ``wait[M]``, every jump of every auction in order,
      auction k's at ``offsets[k]:offsets[k+1]``.
    """

    auctions: tuple[AuctionRecord, ...]
    tau: float
    reserve: np.ndarray = field(init=False, compare=False, repr=False)
    sold: np.ndarray = field(init=False, compare=False, repr=False)
    tail: np.ndarray = field(init=False, compare=False, repr=False)
    offsets: np.ndarray = field(init=False, compare=False, repr=False)
    price: np.ndarray = field(init=False, compare=False, repr=False)
    wait: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        auctions = tuple(self.auctions)
        object.__setattr__(self, "auctions", auctions)
        violations = []
        if len(auctions) < 1:
            violations.append("dataset must contain at least one auction")
        violations += [f"auction {k} has duration {a.duration} != common tau {self.tau}"
                       for k, a in enumerate(auctions) if a.duration != self.tau]
        if violations:
            raise ValidationError(violations)
        K = len(auctions)
        offsets = np.zeros(K + 1, dtype=np.intp)
        np.cumsum([a.m for a in auctions], out=offsets[1:])
        M = int(offsets[-1])
        price, wait = np.fromiter(chain.from_iterable(chain.from_iterable(
            a.jumps for a in auctions)), float, 2 * M).reshape(M, 2).T.copy()
        # waits summed left to right per auction, as the records add them
        spent = np.fromiter((sum(a.waits) for a in auctions), float, K)
        for name, arr in (("reserve", np.fromiter((a.reserve for a in auctions), float, K)),
                          ("sold", np.fromiter((a.sold for a in auctions), bool, K)),
                          ("tail", np.maximum(0.0, self.tau - spent)),
                          ("offsets", offsets), ("price", price), ("wait", wait)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return len(self.auctions)

    @property
    def m(self) -> np.ndarray:
        """Number of standing-price changes per auction."""
        return np.diff(self.offsets)

    @property
    def final_price(self) -> np.ndarray:
        """Final selling price per auction (the reserve if it never jumped)."""
        last = np.append(self.price, 0.0)[self.offsets[1:] - 1]  # unused where m == 0
        return np.where(self.m > 0, last, self.reserve)

    def take(self, idx) -> ObservedDataset:
        """The sub-dataset of the auctions at ``idx``, in ``idx`` order."""
        return ObservedDataset(tuple(self.auctions[int(k)] for k in idx), self.tau)


def has_ties(dataset: ObservedDataset) -> bool:
    vals = np.sort(np.concatenate((dataset.reserve, dataset.price)))
    return bool(np.any(np.diff(vals) == 0.0))


def break_ties(dataset: ObservedDataset, rng: np.random.Generator,
               scale: float = 0.01) -> ObservedDataset:
    """Return a tie-free copy by adding Uniform(0, scale) noise to the
    reserve prices (jump prices from a continuous model are tie-free with
    probability one; reserves are where ties occur in practice)."""
    # cap the jitter so the reserve cannot overtake the first jump
    first = np.append(dataset.price, np.inf)[dataset.offsets[:-1]]
    first = np.where(dataset.m > 0, first, np.inf)
    cap = np.minimum(scale, 0.5 * (first - dataset.reserve))
    reserves = (dataset.reserve + rng.uniform(0.0, cap)).tolist()
    out = ObservedDataset(tuple(AuctionRecord(r, a.duration, a.jumps, a.sold)
                                for r, a in zip(reserves, dataset.auctions)),
                          dataset.tau)
    if has_ties(out):
        raise TieError("ties persist after reserve jitter")
    return out


@dataclass(frozen=True)
class PooledData:
    """Merged cross-auction order structures used by the likelihood.

    ``xbar``/``z`` are ascending price arrays (the jump prices, and the
    jump prices with the reserves); ``ttilde`` carries the time each price
    in ``z`` stood as its auction's selling price; ``u``, ``S``, ``Sbar``
    are 1-based ranks (see module docstring); ``l``/``qsize`` follow the
    partition bookkeeping of the log-likelihood; ``Ks`` holds the 0-based
    indices of the sold auctions.
    """

    xbar: np.ndarray
    z: np.ndarray
    u: np.ndarray
    S: frozenset
    Sbar: frozenset
    Ks: frozenset
    ttilde: np.ndarray
    l: np.ndarray
    qsize: np.ndarray

    @property
    def ell(self) -> int:
        return len(self.xbar)

    @property
    def n(self) -> int:
        """Total parameter count ell + K."""
        return len(self.z)


def pool(dataset: ObservedDataset) -> PooledData:
    """Merge the standing prices of all auctions into the pooled order
    structures.  Raises :class:`TieError` if any two pooled prices are
    equal (the caller is expected to jitter and retry)."""
    if has_ties(dataset):
        raise TieError("ties among pooled prices; apply noise before pooling")

    # per auction, the reserve then its jump prices; each price stands
    # until the next wait of its auction, the last one until the close
    starts, ends = dataset.offsets[:-1], dataset.offsets[1:]
    prices = np.insert(dataset.price, starts, dataset.reserve)
    order = np.argsort(prices)
    z = prices[order]
    ttilde = np.insert(dataset.wait, ends, dataset.tail)[order]
    xbar = np.sort(dataset.price)
    finals = dataset.price[ends[dataset.m > 0] - 1]   # of auctions sold above reserve

    # 1-based ranks of xbar inside z, and of the final selling prices
    u = np.searchsorted(z, xbar) + 1
    S = frozenset((np.searchsorted(xbar, finals) + 1).tolist())
    sbar = np.sort(np.searchsorted(z, finals) + 1)
    idx = np.arange(1, len(z) + 1)
    l = np.searchsorted(u, idx, side="right")          # count of u_j <= i
    qsize = len(sbar) - np.searchsorted(sbar, idx, side="left")
    return PooledData(xbar=xbar, z=z, u=u, S=S, Sbar=frozenset(sbar.tolist()),
                      Ks=frozenset(np.flatnonzero(dataset.sold).tolist()),
                      ttilde=ttilde, l=l.astype(int), qsize=qsize.astype(int))


@dataclass(frozen=True)
class MonotoneCurve:
    """A CDF estimate: step or piecewise-linear over a knot grid.

    Step curves are right-continuous, 0 below the first knot (all
    estimators here are anchored at F(0) = 0) and constant beyond the
    last knot.  Piecewise-linear curves are constant outside the knot
    range.
    """

    knots: np.ndarray
    values: np.ndarray
    kind: str = "step"

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        violations = []
        if self.kind not in ("step", "pl"):
            violations.append(f"unknown curve kind {self.kind!r}")
        if len(knots) != len(values) or len(knots) == 0:
            violations.append("knots and values must be equal-length and non-empty")
        elif not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            violations.append("knots and values must be finite")
        else:
            if np.any(np.diff(knots) <= 0):
                violations.append("knots must be strictly ascending")
            if np.any(np.diff(values) < -1e-12):
                violations.append("values must be non-decreasing")
            if values[0] < -1e-12 or values[-1] > 1 + 1e-12:
                violations.append("values must lie in [0, 1]")
        if violations:
            raise ValidationError(violations)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "step":
            idx = np.searchsorted(self.knots, x, side="right") - 1
            out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 0.0)
        else:
            out = np.interp(x, self.knots, self.values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ThetaVector:
    """Constraint-free survival-ratio parameters, each in [0, 1]."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if np.any(theta < -1e-12) or np.any(theta > 1 + 1e-12):
            raise ValidationError("theta entries must lie in [0, 1]")

    def __len__(self):
        return len(self.theta)


def theta_to_cdf(theta: ThetaVector, z: np.ndarray) -> MonotoneCurve:
    """F(z_i) = 1 - prod_{j<=i} theta_j, as a step curve on z."""
    t = theta.theta if isinstance(theta, ThetaVector) else np.asarray(theta, float)
    z = np.asarray(z, dtype=float)
    if len(t) != len(z):
        raise ValidationError("theta and z must have equal length")
    values = 1.0 - np.cumprod(t)
    values = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
    return MonotoneCurve(z, values, kind="step")


def cdf_to_theta(values: np.ndarray) -> ThetaVector:
    """theta_i = (1 - F(z_i)) / (1 - F(z_{i-1})), G(z_0) = 1, 0/0 := 0."""
    v = np.asarray(values, dtype=float)
    g = 1.0 - v
    g_prev = np.concatenate(([1.0], g[:-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(g_prev > 0.0, g / np.where(g_prev > 0, g_prev, 1.0), 0.0)
    return ThetaVector(np.clip(theta, 0.0, 1.0))


def interpolate(curve: MonotoneCurve, anchor_zero: bool = False) -> MonotoneCurve:
    """Linear interpolation of a step curve through its knot values,
    optionally anchored to pass through (0, 0)."""
    knots = curve.knots
    values = curve.values
    if anchor_zero and (len(knots) == 0 or knots[0] > 0.0):
        knots = np.concatenate(([0.0], knots))
        values = np.concatenate(([0.0], values))
    return MonotoneCurve(knots, values, kind="pl")
