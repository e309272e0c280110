"""End-to-end fit: arrival-rate estimate, initial CDF estimate, and the
profile-likelihood maximizer (constrained near the lower boundary by
default), found by :func:`mle.projected_newton`."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .arrival import estimate_lambda
from .errors import NumericalError, ValidationError
from .initial import (DEFAULT_Q, LowReserveSelection, SpliceAnchors, combine_initial,
                      compute_splice_anchors, estimate_f_fp, initial_theta,
                      select_low_reserve)
from .mle import (AscentResult, LikelihoodContext, projected_newton,
                  reconstruct_cdf)
from .model import (MonotoneCurve, ObservedDataset, PooledData, ThetaVector,
                    pool)

_THETA_CLIP = 1e-6

_log = logging.getLogger(__name__)


def default_epsilon(dataset: ObservedDataset) -> float:
    """Half-width of the low-reserve window: 1% of the median final
    selling price, floored at 0.01."""
    # np.median's value, without the masked-array check that imports numpy.ma
    prices = np.sort(dataset.final_price)
    mid = len(prices) // 2
    med = prices[mid] if len(prices) % 2 else (prices[mid - 1] + prices[mid]) / 2
    return max(0.01, 0.01 * float(med))


def clip_theta0(theta0: ThetaVector, ctx: LikelihoodContext) -> ThetaVector:
    """Push the starting point strictly inside the feasible region.

    The piecewise-linear initial estimate can be flat (ratio exactly 1 at a
    jump position) or saturated at 1 (ratio 0 ahead of later jumps);
    either makes the objective -inf, so those entries are nudged by
    ``_THETA_CLIP`` before the ascent starts.
    """
    t = np.asarray(theta0.theta, dtype=float).copy()
    t[ctx.is_jump] = np.minimum(t[ctx.is_jump], 1.0 - _THETA_CLIP)
    t[ctx.positive] = np.maximum(t[ctx.positive], _THETA_CLIP)
    return ThetaVector(t)


@dataclass(frozen=True)
class FitResult:
    """Everything the downstream consumers need from one fit."""

    lambda_hat: float
    selection: LowReserveSelection
    anchors: SpliceAnchors
    f_init: MonotoneCurve
    theta0: ThetaVector
    pooled: PooledData
    ascent: AscentResult
    cdf: MonotoneCurve
    constrained: bool


def fit_initial(dataset: ObservedDataset, q: float = DEFAULT_Q,
                epsilon: float = None):
    """Arrival rate plus the spliced initial CDF estimate.

    Returns (lambda_hat, selection, anchors, f_init).
    """
    if epsilon is None:
        epsilon = default_epsilon(dataset)
    selection = select_low_reserve(dataset, q, epsilon)
    if selection.r_min >= epsilon:
        _log.info("no reserve is near 0 (r_min %.6g >= epsilon %.6g): lambda_hat estimates "
                  "lambda * G(r_min) and F_hat estimates F(. | v > r_min)",
                  selection.r_min, epsilon)
    lambda_hat = estimate_lambda(dataset, selection.V)
    if lambda_hat <= 0:
        raise NumericalError(
            "arrival-rate estimate is zero (no standing-price jumps in the "
            "low-reserve auctions)")
    f_fp = estimate_f_fp(dataset, selection)
    anchors = compute_splice_anchors(dataset, selection, f_fp)
    f_init = combine_initial(f_fp, anchors)
    return lambda_hat, selection, anchors, f_init


def fit(dataset: ObservedDataset, q: float = DEFAULT_Q, epsilon: float = None,
        tol: float = 1e-8, max_sweeps: int = 10000,
        constrained: bool = True) -> FitResult:
    """Full pipeline on one dataset.

    ``constrained=True`` freezes the coordinates at and below the
    smallest pooled jump price at their initial-estimate values, which
    corrects the likelihood's tendency to overshoot near the lower
    boundary; ``constrained=False`` updates every coordinate.  ``tol``
    bounds the Newton decrement and ``max_sweeps`` caps the solver's
    iterations; ``ascent.sweeps`` counts them.
    """
    pooled = pool(dataset)
    lambda_hat, selection, anchors, f_init = fit_initial(
        dataset, q=q, epsilon=epsilon)
    ctx = LikelihoodContext(pooled, lambda_hat)
    theta0 = clip_theta0(initial_theta(f_init, pooled.z), ctx)
    ascent = projected_newton(ctx, theta0, tol=tol, max_sweeps=max_sweeps,
                              constrained=constrained)
    cdf = reconstruct_cdf(ascent.theta, pooled.z)
    return FitResult(lambda_hat=lambda_hat, selection=selection,
                     anchors=anchors, f_init=f_init, theta0=theta0,
                     pooled=pooled, ascent=ascent, cdf=cdf,
                     constrained=constrained)


def make_rng(rng) -> np.random.Generator:
    """``np.random.default_rng(rng)``, with numpy's refusal of ``rng``
    raised as ValidationError."""
    try:
        return np.random.default_rng(rng)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"rng {rng!r} does not seed a generator: {exc}") from None


def surviving_fits(items, fit_one, failed):
    """``fit_one(item)`` for each of ``items``, lazily; an item whose fit
    raises NumericalError or ValidationError is left out and counted in
    the Counter ``failed`` under (exception class, first message line)."""
    for item in items:
        try:
            result = fit_one(item)
        except (NumericalError, ValidationError) as exc:
            failed[type(exc).__name__, str(exc).partition("\n")[0]] += 1
        else:
            yield result


def failure_reasons(failed, top=None) -> str:
    """The ``top`` most frequent reasons of the Counter ``failed`` (all by
    default), most frequent first, as 'Class: message (n times)'."""
    return "; ".join(f"{name}: {line} ({n} times)"
                     for (name, line), n in failed.most_common(top))
