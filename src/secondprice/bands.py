"""Confidence bands by batch splitting: the data are partitioned into B
batches, the estimator is fit per batch, and the band is the pointwise
min/max envelope.  B is chosen from the level and the estimator's median
bias, which `estimate_median_bias` approximates from the dataset alone by
Monte Carlo on the probability scale (Uniform(0,1) valuations,
transformed reserves)."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import write_csv
from .model import MonotoneCurve, ObservedDataset, union_grid
from .pipeline import (DEFAULT_Q, failure_reasons, fit, fit_initial, make_rng,
                       surviving_fits)
from .simulate import ValuationDistribution, simulate_auctions

_BIAS_GRID = np.arange(1, 100) / 100.0
_UNIT = ValuationDistribution.uniform(0.0, 1.0)   # valuations on the probability scale

_KINDS = ("init", "mle")

_log = logging.getLogger(__name__)


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
    if not (0 <= delta and 0.5 + delta < 1.0):
        raise ValidationError("median bias delta must be in [0, 0.5)")
    # below ln(alpha) / ln(1/2 + delta) batches, (1/2 + delta)^B alone exceeds alpha
    B = max(1, int(np.ceil(np.log(alpha) / np.log(0.5 + delta))) - 1)
    while (0.5 + delta) ** B + (0.5 - delta) ** B > alpha:
        B += 1
    return B


def _fit_kind(dataset: ObservedDataset, kind: str, q,
              epsilon) -> MonotoneCurve:
    if kind == "init":
        return fit_initial(dataset, q=q, epsilon=epsilon)[3]
    return fit(dataset, q=q, epsilon=epsilon).cdf


def _simulate_profile(lam, tau, reserves, rng) -> ObservedDataset:
    # one generator draws every auction's bidders in turn, then the tie
    # jitter; transformed reserves repeat (many exact zeros), and the
    # jitter must stay far below the unit valuation scale
    return simulate_auctions(lam, tau, _UNIT, zip(reserves, repeat(rng)), rng, 1e-6)


def estimate_median_bias(dataset: ObservedDataset, kind: str, mc_reps: int,
                         rng, q: float = DEFAULT_Q, epsilon: float = None) -> float:
    """Monte Carlo median bias delta of the ``kind`` estimator on
    ``dataset``, on the probability scale.

    `fit_initial` gives lambda_hat and the initial CDF.  Each replicate
    simulates ``dataset.K`` auctions with Uniform(0,1) valuations at rate
    lambda_hat over ``dataset.tau``: an auction of the low-reserve set
    keeps reserve 0, any other the initial CDF at its reserve (capped
    below 1).  delta is the sup over a grid of (0,1) of |lower median of
    the replicate estimates - identity|.  Replicates whose fit fails are
    left out, with one warning that gives the reasons.
    """
    if kind not in _KINDS:
        raise ValidationError(f"unknown estimator kind {kind!r}")
    if not (isinstance(mc_reps, Integral) and mc_reps >= 100):
        raise ValidationError("median-bias approximation needs an integer mc_reps >= 100, "
                              f"got {mc_reps!r}")
    rng = make_rng(rng)
    lambda_hat, selection, _, f_init = fit_initial(dataset, q=q, epsilon=epsilon)
    reserves = np.minimum(f_init(dataset.reserve), 1.0 - 1e-9)
    reserves[selection.V] = 0.0
    reserves = reserves.tolist()
    samples = (_simulate_profile(lambda_hat, dataset.tau, reserves, rng)
               for _ in range(mc_reps))
    failed = Counter()
    rows = [np.asarray(curve(_BIAS_GRID)) for curve in surviving_fits(
        samples, lambda sample: _fit_kind(sample, kind, q, 0.01), failed)]
    if failed:
        _log.warning("median-bias simulation left out %d of %d replicates: %s",
                     failed.total(), mc_reps, failure_reasons(failed))
    if len(rows) < 2:
        raise NumericalError(f"median-bias simulation failed in {failed.total()} of "
                             f"{mc_reps} replicates; most often {failure_reasons(failed, 1)}")
    med = np.sort(np.vstack(rows), axis=0)[(len(rows) - 1) // 2]  # lower median
    return float(np.max(np.abs(med - _BIAS_GRID)))


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
    perm = make_rng(rng).permutation(dataset.K)
    curves = []
    for chunk in np.array_split(perm, B):
        curves.append(_fit_kind(dataset.take(chunk), estimator_kind, q, epsilon))
    knots = union_grid([c.knots for c in curves])
    vals = np.vstack([np.asarray(c(knots)) for c in curves])
    return ConfidenceBand(knots, vals.min(axis=0), vals.max(axis=0), B)


def write_band_csv(band: ConfidenceBand, estimate: MonotoneCurve, path,
                   header_lines=()) -> None:
    """Band CSV with columns (x, lower, upper, estimate)."""
    write_csv(path, ("x", "lower", "upper", "estimate"),
              zip(band.knots, band.lower, band.upper, estimate(band.knots)), header_lines)
