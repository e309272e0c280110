"""Profile log-likelihood in the survival-ratio parameters and its
coordinate-ascent maximizer.

Each coordinate update is available in closed form: interior indices that
carry a pooled standing-price jump solve a quadratic (the smaller root is
the maximizer), the remaining indices are linear-coefficient updates
clamped to [0, 1].  One kernel, ``_sweep``, applies the rule to a range
of coordinates in O(n): a backward suffix pass with the pre-sweep
parameters and a forward prefix product with the freshly updated ones.
The ascent calls it once per sweep, or once per coordinate when every
update is checked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .model import MonotoneCurve, PooledData, ThetaVector, interpolate, theta_to_cdf

try:
    from numba import njit as _njit
except ImportError:  # numba is the optional "fast" extra
    _njit = None

_ASSERT_SLACK = 1e-9
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LikelihoodContext:
    """Pooled data plus the fixed arrays the objective needs.

    ``coef[i]`` is the coefficient of ln(theta_i): the count of final
    selling prices at or above rank i+1 plus, when any jump exists, the
    number of pooled jump prices strictly above rank i+1.  ``is_jump``
    flags the positions of the pooled non-reserve standing prices.
    """

    pooled: PooledData
    lambda_hat: float
    coef: np.ndarray = field(init=False)
    is_jump: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.lambda_hat <= 0:
            raise ValidationError("lambda_hat must be positive")
        p = self.pooled
        coef = p.qsize.astype(float)
        if p.ell > 0:
            coef = coef + (p.ell - p.l)
        is_jump = np.zeros(p.n, dtype=bool)
        is_jump[p.u - 1] = True
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "is_jump", is_jump)

    @property
    def n(self) -> int:
        return self.pooled.n


def _log_lik_arr(theta: np.ndarray, ctx: LikelihoodContext) -> float:
    t = theta
    p = ctx.pooled
    val = -ctx.lambda_hat * float(np.sum(p.ttilde * np.cumprod(t)))
    pos = ctx.coef > 0
    if np.any(t[pos] == 0.0) or np.any(t[ctx.is_jump] >= 1.0):
        return -np.inf
    if np.any(pos):
        val += float(np.sum(ctx.coef[pos] * np.log(t[pos])))
    if p.ell > 0:
        val += float(np.sum(np.log1p(-t[ctx.is_jump])))
    return val


def log_lik(theta: ThetaVector, ctx: LikelihoodContext) -> float:
    """Objective value up to an additive constant.

    Infeasible points (a unit value at a jump position, or a zero value
    with a positive log coefficient) evaluate to -inf.
    """
    return _log_lik_arr(np.asarray(theta.theta, dtype=float), ctx)


def _case1_root(A: float, B: float) -> float:
    # smaller root of A x^2 - (A+B+1) x + B, written to avoid
    # cancellation and to hit the A -> 0 limit B/(B+1) exactly
    s = A + B + 1.0
    disc = s * s - 4.0 * A * B
    return 2.0 * B / (s + math.sqrt(max(disc, 0.0)))


def _sweep(theta, ttilde, coef, is_jump, lam, lo, hi):
    """Set coordinates lo..hi-1 (0-based, in order) of ``theta`` in place
    to their exact maximizers, each with all other coordinates fixed.

    The curvature weight of coordinate i is lam * prefix * W[i], where
    W[i] = ttilde[i] + theta[i+1] * W[i+1] depends only on the later
    (not yet updated) coordinates and prefix is the running product of
    the earlier (already updated) ones.  Jump coordinates take the
    quadratic's smaller root, the others b/A clamped to [0, 1].
    """
    n = theta.shape[0]
    W = np.empty(n)
    W[n - 1] = ttilde[n - 1]
    for i in range(n - 2, lo - 1, -1):
        W[i] = ttilde[i] + theta[i + 1] * W[i + 1]
    prefix = 1.0
    for i in range(lo):
        prefix *= theta[i]
    for i in range(lo, hi):
        A = lam * prefix * W[i]
        b = coef[i]
        if is_jump[i]:
            theta[i] = _case1_root(A, b)
        elif b <= 0.0:
            theta[i] = 0.0
        elif A <= b:
            theta[i] = 1.0
        else:
            theta[i] = b / A
        prefix *= theta[i]


if _njit is not None:
    _case1_root = _njit(cache=True)(_case1_root)
    _sweep = _njit(cache=True)(_sweep)


def _check_ascent(before: float, after: float, what: str) -> None:
    if not after >= before - _ASSERT_SLACK * (1.0 + abs(before)):
        raise NumericalError(
            f"{what} decreased the objective: {before} -> {after}")


@dataclass(frozen=True)
class AscentResult:
    """Final parameters plus the per-sweep objective trace."""

    theta: ThetaVector
    history: tuple
    converged: bool

    @property
    def sweeps(self) -> int:
        return len(self.history) - 1

    @property
    def loglik(self) -> float:
        return self.history[-1]


def coordinate_ascent(ctx: LikelihoodContext, theta0: ThetaVector,
                      tol: float = 1e-8, max_sweeps: int = 10000,
                      constrained: bool = False,
                      check_updates: bool = False) -> AscentResult:
    """Cyclic coordinate maximization from theta0.

    ``constrained`` holds the coordinates through the position of the
    smallest pooled jump price (1-based) at their starting values and
    only updates the rest.  Terminates when a full sweep improves the
    objective by at most ``tol``; reaching ``max_sweeps`` first logs a
    warning.  ``check_updates`` runs the same sweep one coordinate at a
    time and checks the objective after every update (debug mode, slow);
    a decrease beyond rounding slack raises ``NumericalError``, as does
    a decreasing sweep in either mode.
    """
    if tol <= 0 or max_sweeps < 1:
        raise ValidationError("need tol > 0 and max_sweeps >= 1")
    theta = np.asarray(theta0.theta, dtype=float).copy()
    n = len(theta)
    if n != ctx.n:
        raise ValidationError("theta0 length does not match the pooled grid")
    freeze = 0
    if constrained:
        if ctx.pooled.ell == 0:
            raise ValidationError("constrained mode needs at least one jump")
        freeze = int(ctx.pooled.u[0])

    current = _log_lik_arr(theta, ctx)
    if not np.isfinite(current):
        raise NumericalError(
            "objective is not finite at the starting point; clip theta0 into "
            "the feasible region first")
    data = (ctx.pooled.ttilde, ctx.coef, ctx.is_jump, ctx.lambda_hat)
    history = [current]
    converged = False
    for _ in range(max_sweeps):
        if check_updates:
            for i in range(freeze, n):
                _sweep(theta, *data, i, i + 1)
                after = _log_lik_arr(theta, ctx)
                _check_ascent(current, after, f"coordinate update {i + 1}")
                current = max(current, after)
        else:
            _sweep(theta, *data, freeze, n)
        new = _log_lik_arr(theta, ctx)
        _check_ascent(history[-1], new, "sweep")
        improvement = new - history[-1]
        history.append(new)
        if improvement <= tol:
            converged = True
            break
    else:
        _log.warning("coordinate ascent stopped at max_sweeps=%d without "
                     "converging; last sweep improved the objective by %.3g "
                     "(tol %.3g)", max_sweeps, improvement, tol)
    return AscentResult(ThetaVector(theta), tuple(history), converged)


def reconstruct_cdf(theta_hat: ThetaVector, z: np.ndarray) -> MonotoneCurve:
    """Piecewise-linear CDF estimate through the cumulative-product step
    values on the pooled grid, anchored at (0, 0)."""
    return interpolate(theta_to_cdf(theta_hat, np.asarray(z, dtype=float)),
                       anchor_zero=True)
