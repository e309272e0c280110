"""Confidence bands by batch splitting: the data are partitioned into B
batches, the estimator is fit per batch, and the band is the pointwise
min/max envelope.  B is chosen from the level and the estimator's median
bias, which is itself approximated by Monte Carlo on the probability
scale (Uniform(0,1) valuations, transformed reserves)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import write_csv
from .model import MonotoneCurve, ObservedDataset
from .pipeline import DEFAULT_Q, fit, fit_initial
from .simulate import ValuationDistribution, simulate_auctions

_BIAS_GRID = np.arange(1, 100) / 100.0

_KINDS = ("init", "mle")


@dataclass(frozen=True)
class MedianBiasEstimate:
    """Sup-norm distance between the replicate-wise (lower) median of the
    estimator and the identity, on the probability scale."""

    delta: float
    estimator_kind: str
    mc_reps: int
    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if self.delta < 0:
            raise ValidationError("median bias cannot be negative")
        if np.any(grid <= 0) or np.any(grid >= 1):
            raise ValidationError("bias grid must lie strictly inside (0,1)")


def envelope_curves(knots, lower, upper) -> tuple[MonotoneCurve, MonotoneCurve]:
    """A band's lower and upper envelopes over ``knots`` as two curves;
    the lower may not exceed the upper."""
    lo, hi = MonotoneCurve(knots, lower), MonotoneCurve(knots, upper)
    if np.any(lo.values > hi.values + 1e-12):
        raise ValidationError("lower envelope exceeds upper envelope")
    return lo, hi


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise min/max envelope of the batch estimates."""

    knots: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    batches: int

    def __post_init__(self):
        lo, hi = envelope_curves(self.knots, self.lower, self.upper)
        for name, arr in (("knots", lo.knots), ("lower", lo.values), ("upper", hi.values)):
            object.__setattr__(self, name, arr)

    @property
    def average_width(self) -> float:
        return float(np.mean(self.upper - self.lower))


def hulc_batches(alpha: float, delta: float) -> int:
    """Smallest B with (1/2+delta)^B + (1/2-delta)^B <= alpha."""
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0, 1)")
    if not 0 <= delta < 0.5:
        raise ValidationError("median bias delta must be in [0, 0.5)")
    B = 1
    while (0.5 + delta) ** B + (0.5 - delta) ** B > alpha:
        B += 1
    return B


def _fit_kind(dataset: ObservedDataset, kind: str, q,
              epsilon) -> MonotoneCurve:
    if kind == "init":
        return fit_initial(dataset, q=q, epsilon=epsilon)[3]
    return fit(dataset, q=q, epsilon=epsilon).cdf


def _simulate_profile(lam, tau, reserves, rng) -> ObservedDataset:
    # transformed reserves repeat (many exact zeros); tie jitter must stay
    # far below the unit valuation scale
    return simulate_auctions(lam, tau, ValuationDistribution.uniform(0.0, 1.0),
                             ((float(r), rng) for r in reserves), rng, 1e-6)


def estimate_median_bias(kind: str, K: int, lambda_hat: float, tau: float,
                         reserve_profile, mc_reps: int, rng,
                         q: float = DEFAULT_Q) -> MedianBiasEstimate:
    """Monte Carlo median-bias approximation on the probability scale.

    Each replicate simulates K auctions with Uniform(0,1) valuations at
    rate ``lambda_hat`` over ``tau``, with reserves given by
    ``reserve_profile`` (low-reserve auctions mapped to 0, the rest to
    the fitted CDF value at their reserve).  delta is the sup over the
    grid of |lower-median of the estimate - identity|.
    """
    if kind not in _KINDS:
        raise ValidationError(f"unknown estimator kind {kind!r}")
    if mc_reps < 100:
        raise ValidationError("median-bias approximation needs mc_reps >= 100")
    reserves = np.asarray(reserve_profile, dtype=float)
    if len(reserves) != K or np.any(reserves < 0) or np.any(reserves >= 1):
        raise ValidationError("reserve_profile must hold K values in [0, 1)")
    rng = np.random.default_rng(rng)
    rows = []
    failures = 0
    for _ in range(mc_reps):
        dataset = _simulate_profile(lambda_hat, tau, reserves, rng)
        try:
            curve = _fit_kind(dataset, kind, q, 0.01)
        except (NumericalError, ValidationError):
            failures += 1
            continue
        rows.append(np.asarray(curve(_BIAS_GRID)))
    if len(rows) < 2:
        raise NumericalError(
            f"median-bias simulation failed in {failures} of {mc_reps} replicates")
    mat = np.vstack(rows)
    med = np.sort(mat, axis=0)[(len(rows) - 1) // 2]  # lower median
    delta = float(np.max(np.abs(med - _BIAS_GRID)))
    return MedianBiasEstimate(min(delta, 0.5 - 1e-9), kind, mc_reps, _BIAS_GRID)


def hulc_band(dataset: ObservedDataset, estimator_kind: str, alpha: float,
              delta: float, rng, q: float = DEFAULT_Q,
              epsilon: float = None) -> ConfidenceBand:
    """Envelope band at level 1-alpha from a random B-way split."""
    if estimator_kind not in _KINDS:
        raise ValidationError(f"unknown estimator kind {estimator_kind!r}")
    B = hulc_batches(alpha, delta)
    if dataset.K < B:
        raise ValidationError(
            f"need at least B={B} auctions to split, got {dataset.K}")
    rng = np.random.default_rng(rng)
    perm = rng.permutation(dataset.K)
    curves = []
    for chunk in np.array_split(perm, B):
        curves.append(_fit_kind(dataset.take(chunk), estimator_kind, q, epsilon))
    knots = np.unique(np.concatenate([c.knots for c in curves]))
    vals = np.vstack([np.asarray(c(knots)) for c in curves])
    return ConfidenceBand(knots, vals.min(axis=0), vals.max(axis=0), B)


def write_band_csv(band: ConfidenceBand, estimate: MonotoneCurve, path,
                   header_lines=()) -> None:
    """Band CSV with columns (x, lower, upper, estimate)."""
    write_csv(path, ("x", "lower", "upper", "estimate"),
              zip(band.knots, band.lower, band.upper, estimate(band.knots)), header_lines)
