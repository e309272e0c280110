"""Domain types, validation, cross-auction pooling, and the
survival-ratio reparametrization of a CDF.

Dataset layout
--------------
:class:`ObservedDataset` stores its auctions as arrays only (see its
docstring), and every reader uses them.  An :class:`AuctionRecord` is one
auction as a Python value, for building or inspecting small datasets.
One set of rules, :func:`audit_auctions`, checks both.

Curves
------
``MonotoneCurve(knots, values)`` takes no ``kind``: every curve is the
piecewise-linear CDF through its knots, constant outside them.

Indexing conventions
--------------------
The rank arrays ``u`` and ``sbar``, the rank sets ``S`` and ``Sbar`` and
the vectors ``l`` and ``qsize`` are 1-based, matching the order-statistic
definitions they come from: ``u[j]`` is the position of the j-th pooled
non-reserve standing price inside ``z`` counting from 1.  Auction indices
(``ks``, and the set ``Ks``) are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TieError, ValidationError

_TAIL_TOL = 1e-9
_STORED = ("reserve", "sold", "offsets", "price", "wait")


def audit_auctions(reserve, duration, sold, m, price, wait):
    """Check auctions of a common ``duration`` against the auction rules:
    ``reserve``, ``sold`` and the jump counts ``m`` per auction, ``price``
    and ``wait`` per jump, auction by auction.  Returns a ``(k, message)``
    pair per rule that auction k breaks, in auction order, and each
    auction's waits summed left to right, as Python's ``sum`` adds them."""
    reserve, price, wait = (np.asarray(a) for a in (reserve, price, wait))
    sold, m = np.asarray(sold, dtype=bool), np.asarray(m, dtype=np.intp)
    K, start = len(m), m.cumsum() - m
    owner = np.arange(K).repeat(m)
    spent = np.bincount(owner, wait, K).astype(float)   # int64 when there is no jump
    jumped, low = m > 0, np.zeros(K, dtype=bool)
    low[jumped] = price[start[jumped]] <= reserve[jumped]
    down = np.flatnonzero((price[1:] <= price[:-1]) & (owner[1:] == owner[:-1]))
    down_at = np.full(K, len(price))        # each auction's first decrease
    np.minimum.at(down_at, owner[down], down)
    rules = [
        (reserve < 0, lambda k: f"reserve {reserve[k]} is negative"),
        (np.full(K, duration <= 0), lambda k: f"duration {duration} is not positive"),
        (~np.isfinite(reserve) | (not math.isfinite(duration))
         | (np.bincount(owner[~(np.isfinite(price) & np.isfinite(wait))], minlength=K) > 0),
         lambda k: "reserve, duration, jump prices and waits must be finite"),
        (low, lambda k: f"first jump price {price[start[k]]} does not exceed "
                        f"reserve {reserve[k]}"),
        (down_at < len(price), lambda k: "jump prices not strictly increasing at "
                                         f"{price[down_at[k]]} -> {price[down_at[k] + 1]}"),
        (np.bincount(owner[wait <= 0], minlength=K) > 0, lambda k: "non-positive waiting time"),
        (jumped & (spent > duration + _TAIL_TOL * max(duration, 1.0)),
         lambda k: f"waiting times sum to {spent[k]} > duration {duration}"),
        (jumped & ~sold, lambda k: "auction has standing-price jumps but is marked unsold"),
    ]
    if not any(mask.any() for mask, _ in rules):
        return [], spent
    return sorted(((k, text(k)) for mask, text in rules for k in np.flatnonzero(mask).tolist()),
                  key=lambda found: found[0]), spent


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
        violations, _ = audit_auctions([self.reserve], self.duration, [bool(self.sold)],
                                       [self.m], np.array(self.prices), np.array(self.waits))
        if violations:
            raise ValidationError([text for _, text in violations])

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


@dataclass(frozen=True, init=False, eq=False)
class ObservedDataset:
    """K independent auctions of the same product with a common duration.

    Its data, which ``==`` and ``hash`` compare, are ``tau`` and the
    read-only arrays ``reserve[K]`` and ``sold[K]``, and ``price[M]`` and
    ``wait[M]``, every jump of every auction in order, auction k's at
    ``offsets[k]:offsets[k+1]``.  ``tail[K]``, the time from the last
    standing-price change to the close (``tau`` if there is none), is
    derived from them once.  ``ObservedDataset(records, tau)`` and
    :meth:`from_arrays` both check every auction with :func:`audit_auctions`.
    """

    reserve: np.ndarray
    sold: np.ndarray
    offsets: np.ndarray
    price: np.ndarray
    wait: np.ndarray
    tau: float
    tail: np.ndarray

    def __init__(self, auctions, tau):
        auctions = tuple(auctions)
        mismatched = [f"auction {k} has duration {a.duration} != common tau {tau}"
                      for k, a in enumerate(auctions) if a.duration != tau]
        if mismatched:
            raise ValidationError(mismatched)
        price, wait = np.array([j for a in auctions for j in a.jumps], dtype=float).reshape(-1, 2).T
        self._store([a.reserve for a in auctions], [a.sold for a in auctions],
                    [a.m for a in auctions], price, wait, tau)

    @classmethod
    def from_arrays(cls, reserve, sold, m, price, wait, tau) -> ObservedDataset:
        """The dataset of copies of ``reserve[K]``, ``sold[K]``, the jump
        counts ``m[K]`` and every jump's ``price`` and ``wait`` in order."""
        dataset = cls.__new__(cls)
        dataset._store(reserve, sold, m, price, wait, tau)
        return dataset

    def _store(self, reserve, sold, m, price, wait, tau):
        reserve, price, wait = (np.array(a, dtype=float) for a in (reserve, price, wait))
        sold, m = np.array(sold, dtype=bool), np.asarray(m, dtype=np.intp)
        if not (m.ndim == 1 and reserve.shape == sold.shape == m.shape and np.all(m >= 0)
                and price.shape == wait.shape == (m.sum(),)):
            raise ValidationError("need one reserve, sold flag and jump count per auction"
                                  " and one price and wait per jump")
        if len(m) < 1:
            raise ValidationError("dataset must contain at least one auction")
        violations, spent = audit_auctions(reserve, tau, sold, m, price, wait)
        if violations:
            raise ValidationError([f"auction {k}: {text}" for k, text in violations],
                                  violations)
        offsets = np.concatenate(([0], m.cumsum()))
        for name, arr in zip(("reserve", "sold", "offsets", "price", "wait", "tail"),
                             (reserve, sold, offsets, price, wait, np.maximum(0.0, tau - spent))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "tau", tau)

    def __eq__(self, other):
        return isinstance(other, ObservedDataset) and self.tau == other.tau and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in _STORED)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which == does not tell apart
        return hash((self.tau, *((getattr(self, f) + 0.0).tobytes() for f in _STORED)))

    @property
    def K(self) -> int:
        return len(self.reserve)

    @property
    def m(self) -> np.ndarray:
        """Number of standing-price changes per auction."""
        return np.diff(self.offsets)

    @property
    def final_price(self) -> np.ndarray:
        """Final selling price per auction (the reserve if it never jumped)."""
        last = np.append(self.price, 0.0)[self.offsets[1:] - 1]  # unused where m == 0
        return np.where(self.m > 0, last, self.reserve)

    @property
    def auctions(self) -> tuple[AuctionRecord, ...]:
        """The auctions as records, built on each access."""
        reserve, sold, offsets = (a.tolist() for a in (self.reserve, self.sold, self.offsets))
        jumps = list(zip(self.price.tolist(), self.wait.tolist()))
        return tuple(AuctionRecord(reserve[k], self.tau, tuple(jumps[lo:hi]), sold[k])
                     for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])))

    def take(self, idx) -> ObservedDataset:
        """The sub-dataset of the auctions at the integer indices ``idx``, in
        ``idx`` order, or where ``idx`` is True if it is a mask of K booleans."""
        idx = np.asarray(idx)
        if idx.dtype == bool and idx.shape == (self.K,):
            idx = np.flatnonzero(idx)
        elif idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
            raise ValidationError("auction indices must be a list of integers or a mask of "
                                  f"{self.K} booleans, got {idx.dtype} of shape {idx.shape}")
        idx = np.arange(self.K)[idx.astype(np.intp, copy=False)]
        m = self.m[idx]
        jumps = np.arange(m.sum()) + np.repeat(self.offsets[idx] - (m.cumsum() - m), m)
        return ObservedDataset.from_arrays(self.reserve[idx], self.sold[idx], m,
                                           self.price[jumps], self.wait[jumps], self.tau)


def has_ties(dataset: ObservedDataset) -> bool:
    vals = np.sort(np.concatenate((dataset.reserve, dataset.price)))
    return bool(np.any(np.diff(vals) == 0.0))


def break_ties(dataset: ObservedDataset, rng, scale: float = 0.01) -> ObservedDataset:
    """``dataset`` itself, drawing nothing, if no two of its prices tie;
    else a tie-free copy with Uniform(0, scale) noise added to the reserve
    prices (jump prices from a continuous model are tie-free with
    probability one; reserves are where ties occur in practice).  ``rng``
    is a generator, or a function that makes one, called only on a tie."""
    if not has_ties(dataset):
        return dataset
    if callable(rng):
        rng = rng()
    # cap the jitter so the reserve cannot overtake the first jump
    first = np.append(dataset.price, np.inf)[dataset.offsets[:-1]]
    first = np.where(dataset.m > 0, first, np.inf)
    cap = np.minimum(scale, 0.5 * (first - dataset.reserve))
    out = ObservedDataset.from_arrays(dataset.reserve + rng.uniform(0.0, cap), dataset.sold,
                                      dataset.m, dataset.price, dataset.wait, dataset.tau)
    if has_ties(out):
        raise TieError("ties persist after reserve jitter")
    return out


@dataclass(frozen=True)
class PooledData:
    """Merged cross-auction order structures used by the likelihood.

    Stored as arrays: ``z``, every reserve and jump price in ascending
    order; ``ttilde``, the time each price in ``z`` stood as its auction's
    selling price; ``u`` and ``sbar``, the ascending 1-based ranks in ``z``
    of the jump prices and of the final selling prices; ``ks``, the
    ascending indices of the sold auctions.  Derived on access: the jump
    prices ``xbar``, the likelihood's bookkeeping ``l[i-1]`` (the count of
    u_j <= i) and ``qsize[i-1]`` (of sbar_j >= i), and the paper's sets
    ``S`` (the ranks of the final prices in ``xbar``), ``Sbar`` and ``Ks``.
    """

    z: np.ndarray
    ttilde: np.ndarray
    u: np.ndarray
    sbar: np.ndarray
    ks: np.ndarray

    @property
    def xbar(self) -> np.ndarray:
        return self.z[self.u - 1]

    @property
    def l(self) -> np.ndarray:
        return np.searchsorted(self.u, np.arange(1, self.n + 1), side="right")

    @property
    def qsize(self) -> np.ndarray:
        return len(self.sbar) - np.searchsorted(self.sbar, np.arange(1, self.n + 1))

    @property
    def S(self) -> frozenset:
        return frozenset((np.searchsorted(self.u, self.sbar) + 1).tolist())

    @property
    def Sbar(self) -> frozenset:
        return frozenset(self.sbar.tolist())

    @property
    def Ks(self) -> frozenset:
        return frozenset(self.ks.tolist())

    @property
    def ell(self) -> int:
        return len(self.u)

    @property
    def n(self) -> int:
        """Total parameter count ell + K."""
        return len(self.z)


def pool(dataset: ObservedDataset) -> PooledData:
    """Merge the standing prices of all auctions into the pooled order
    structures.  Raises :class:`TieError` if any two pooled prices are
    equal (the caller is expected to jitter and retry)."""
    # per auction, the reserve then its jump prices; each price stands
    # until the next wait of its auction, the last one until the close
    starts, ends = dataset.offsets[:-1], dataset.offsets[1:]
    prices = np.insert(dataset.price, starts, dataset.reserve)
    order = np.argsort(prices)
    z = prices[order]
    if np.any(np.diff(z) == 0.0):
        raise TieError("ties among pooled prices; apply noise before pooling")
    ttilde = np.insert(dataset.wait, ends, dataset.tail)[order]
    kind = np.ones(len(dataset.price), dtype=np.int8)   # 1 for a jump price,
    kind[ends[dataset.m > 0] - 1] = 2                   # 2 for a final one,
    kind = np.insert(kind, starts, 0)[order]            # 0 for a reserve
    return PooledData(z=z, ttilde=ttilde, u=np.flatnonzero(kind) + 1,
                      sbar=np.flatnonzero(kind == 2) + 1, ks=np.flatnonzero(dataset.sold))


def union_grid(arrays) -> np.ndarray:
    """The distinct values of ``arrays`` together, ascending: the array
    ``np.unique(np.concatenate(arrays))`` gives, by its own sort and
    comparison, without its masked-array check, whose first call imports
    numpy.ma, a module no command otherwise needs.  Values must be finite."""
    grid = np.sort(np.concatenate(arrays))
    keep = np.empty(len(grid), dtype=bool)
    keep[:1] = True
    keep[1:] = grid[1:] != grid[:-1]
    return grid[keep]


@dataclass(frozen=True)
class MonotoneCurve:
    """A CDF estimate: the piecewise-linear curve through ``(knots,
    values)``, constant outside the knot range."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        violations = []
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

    @classmethod
    def from_zero(cls, knots, values) -> MonotoneCurve:
        """The curve through ``(knots, values)``, anchored at (0, 0) when
        the first knot is positive (every estimator here has F(0) = 0)."""
        knots, values = np.asarray(knots, dtype=float), np.asarray(values, dtype=float)
        if len(knots) and knots[0] > 0.0:
            knots, values = np.concatenate(([0.0], knots)), np.concatenate(([0.0], values))
        return cls(knots, values)

    def __call__(self, x) -> np.ndarray:
        out = np.interp(np.asarray(x, dtype=float), self.knots, self.values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ThetaVector:
    """Constraint-free survival-ratio parameters, each in [0, 1]."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if not np.all((theta >= -1e-12) & (theta <= 1 + 1e-12)):    # NaN fails both
            raise ValidationError("theta entries must lie in [0, 1]")

    def __len__(self):
        return len(self.theta)


def cdf_to_theta(values: np.ndarray) -> ThetaVector:
    """theta_i = (1 - F(z_i)) / (1 - F(z_{i-1})), G(z_0) = 1, 0/0 := 0."""
    v = np.asarray(values, dtype=float)
    g = 1.0 - v
    g_prev = np.concatenate(([1.0], g[:-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(g_prev > 0.0, g / np.where(g_prev > 0, g_prev, 1.0), 0.0)
    return ThetaVector(np.clip(theta, 0.0, 1.0))
