"""Distances between CDF estimates and the replication harnesses that
aggregate them: the simulate/fit/score loop over replicated synthetic
datasets, and the train/test split protocol for observed data."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import NumericalError, ValidationError
from .ingest import write_csv
from .model import MonotoneCurve, ObservedDataset, union_grid
from .initial import DEFAULT_Q, check_window

_TV_REFINE_TOL = 1e-5
_KS_REFINE_POINTS = 1000


def _grid(f1, f2) -> np.ndarray:
    """0, every knot of each curve, and ``_KS_REFINE_POINTS`` points over
    the combined support when either side is a distribution (a
    ``ValuationDistribution``, anything that is not a ``MonotoneCurve``)."""
    dists = [f for f in (f1, f2) if not isinstance(f, MonotoneCurve)]
    curves = [f for f in (f1, f2) if isinstance(f, MonotoneCurve)]
    pts = [[0.0], *(c.knots for c in curves)]
    if dists:
        ends = [d.support() for d in dists] + [(c.knots[0], c.knots[-1]) for c in curves]
        pts.append(np.linspace(min(a for a, _ in ends), max(b for _, b in ends),
                               _KS_REFINE_POINTS))
    return union_grid(pts)


def _values(f, pts):
    """F at the ascending ``pts`` and the value F reaches beyond them: 1
    for a distribution, the last value for a curve."""
    if not isinstance(f, MonotoneCurve):
        return np.asarray(f.cdf(pts), dtype=float), 1.0
    v = f(pts)
    return v, float(v[-1])


def ks_distance(f1, f2) -> float:
    """sup |F1 - F2|.

    For piecewise-linear curves the difference is piecewise linear, so
    the sup is attained on the union knot set; analytic inputs are
    sampled on a refinement grid over the combined support.
    """
    pts = _grid(f1, f2)
    (v1, end1), (v2, end2) = _values(f1, pts), _values(f2, pts)
    # both functions reach their terminal value beyond the last point;
    # include the limiting gap (e.g. a defective estimate vs a full CDF)
    return max(float(np.max(np.abs(v1 - v2))), abs(end1 - end2))


def _tv_on_grid(f1, f2, pts) -> float:
    (v1, end1), (v2, end2) = _values(f1, pts), _values(f2, pts)
    total = 0.5 * float(np.sum(np.abs(np.diff(v1) - np.diff(v2))))
    # atoms at the ends of the evaluation window: mass below the first
    # point and any deficiency above the last one
    total += 0.5 * abs(v1[0] - v2[0])
    total += 0.5 * abs((1.0 - end1) - (1.0 - end2))
    return total


def tv_distance(f1, f2) -> float:
    """Half the L1 distance between the densities.

    Piecewise-linear curves have piecewise-constant densities, so the
    union-knot partition is exact.  Against an analytic distribution the
    partition is refined (midpoint splitting) until the value moves by
    less than 1e-5.  Mass an estimate never accumulates is treated as an
    atom at the right end of the evaluation window.
    """
    pts = _grid(f1, f2)
    val = _tv_on_grid(f1, f2, pts)
    if not (isinstance(f1, MonotoneCurve) and isinstance(f2, MonotoneCurve)):
        for _ in range(20):
            pts = union_grid((pts, 0.5 * (pts[:-1] + pts[1:])))
            new = _tv_on_grid(f1, f2, pts)
            if abs(new - val) < _TV_REFINE_TOL:
                return new
            val = new
    return val


@dataclass(frozen=True)
class StudyReport:
    """Aggregated distances for one simulation setting."""

    label: str
    replicates: int
    mean_ks_mle: float
    mean_ks_init: float
    mean_tv_mle: float
    mean_tv_init: float
    raw: tuple  # per-replicate (ks_mle, ks_init, tv_mle, tv_init)
    failures: int = 0
    reasons: Counter = field(default_factory=Counter)  # (class, message line): count

    def __post_init__(self):
        for v in (self.mean_ks_mle, self.mean_ks_init,
                  self.mean_tv_mle, self.mean_tv_init):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"mean distance {v} outside [0, 1]")


def replicate_table(settings, replicates: int, base_seed: int,
                    lam: float = 1.0, tau: float = 100.0,
                    q: float = DEFAULT_Q) -> list:
    """Simulate, fit, and score each (distribution, K) setting.

    Reserves are 0 throughout (with automatic tie jitter), matching the
    negligible-reserve regime the arrival-rate estimator assumes.
    Replicates whose fit fails are left out; ``failures`` counts them and
    ``reasons`` says why.
    Needs an integer ``replicates >= 1``, an integer ``base_seed >= 0``
    and ``0 < q < 1``.
    """
    if not (isinstance(replicates, Integral) and replicates >= 1):
        raise ValidationError("need an integer count of at least 1 replicate, "
                              f"got {replicates!r}")
    if not (isinstance(base_seed, Integral) and base_seed >= 0):
        raise ValidationError(f"base_seed must be an integer >= 0, got {base_seed!r}")
    from .pipeline import failure_reasons, fit, surviving_fits
    from .simulate import SimConfig, run_study
    check_window(q)
    reports = []
    for s, (dist, K) in enumerate(settings):
        seeds = (int(np.random.SeedSequence((int(base_seed), s, rep)).generate_state(1)[0])
                 for rep in range(replicates))
        datasets = (run_study(SimConfig(lam, tau, K, seed), dist) for seed in seeds)
        failed = Counter()
        raw = [(ks_distance(res.cdf, dist), ks_distance(res.f_init, dist),
                tv_distance(res.cdf, dist), tv_distance(res.f_init, dist))
               for res in surviving_fits(datasets, lambda ds: fit(ds, q=q), failed)]
        if not raw:
            raise NumericalError(f"every replicate failed for setting {dist.kind}, "
                                 f"K={K}; most often {failure_reasons(failed, 1)}")
        means = map(float, np.mean(np.asarray(raw), axis=0))
        reports.append(StudyReport(f"{dist.kind}-K{K}", len(raw), *means,
                                   raw=tuple(raw), failures=failed.total(),
                                   reasons=failed))
    return reports


@dataclass(frozen=True)
class TrainTestReport:
    """Averaged out-of-sample agreement from repeated random splits."""

    train_fraction: float
    replications: int
    avg_tv_init: float   # initial estimate on train vs MLE on test
    avg_tv_mle: float    # MLE on train vs MLE on test
    skipped: int
    reasons: Counter = field(default_factory=Counter)  # (class, message line): count


def train_test_eval(dataset: ObservedDataset, ratio: float,
                    replications: int, rng, q: float = DEFAULT_Q,
                    epsilon: float = None) -> TrainTestReport:
    """Random train/test splits at the given train fraction; the test-set
    MLE serves as the reference each train-set estimate is scored
    against; a split whose fit fails is left out, counted in ``skipped``
    and ``reasons``.  Needs an integer ``replications >= 1``; ``rng``,
    ``q`` and ``epsilon`` are checked before any split."""
    if not 0 < ratio < 1:
        raise ValidationError("train fraction must be in (0, 1)")
    if not (isinstance(replications, Integral) and replications >= 1):
        raise ValidationError("need an integer count of at least 1 replication, "
                              f"got {replications!r}")
    check_window(q, epsilon)
    n_train = int(round(ratio * dataset.K))
    if n_train < 1 or n_train >= dataset.K:
        raise ValidationError("split leaves an empty train or test set")
    from .pipeline import failure_reasons, fit, make_rng, surviving_fits
    rng = make_rng(rng)
    perms = (rng.permutation(dataset.K) for _ in range(replications))
    splits = ((dataset.take(p[:n_train]), dataset.take(p[n_train:])) for p in perms)
    failed = Counter()
    tv = [(tv_distance(fit_tr.f_init, fit_te.cdf), tv_distance(fit_tr.cdf, fit_te.cdf))
          for fit_tr, fit_te in surviving_fits(
              splits, lambda split: [fit(part, q=q, epsilon=epsilon) for part in split],
              failed)]
    if not tv:
        raise NumericalError("every split replication failed; most often "
                             + failure_reasons(failed, 1))
    tv_init, tv_mle = map(np.mean, zip(*tv))
    return TrainTestReport(ratio, len(tv), float(tv_init), float(tv_mle),
                           failed.total(), failed)


def write_report_csv(reports, path, header_lines=()) -> None:
    """One row per setting, mirroring the study-table layout."""
    write_csv(path, ("setting", "replicates", "failures",
                     "ks_mle", "ks_init", "tv_mle", "tv_init"),
              ([r.label, r.replicates, r.failures,
                f"{r.mean_ks_mle:.4f}", f"{r.mean_ks_init:.4f}",
                f"{r.mean_tv_mle:.4f}", f"{r.mean_tv_init:.4f}"] for r in reports),
              header_lines)
