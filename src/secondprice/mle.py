"""Profile log-likelihood in the survival-ratio parameters and its
coordinate-ascent maximizer.

Each coordinate update is available in closed form: interior indices that
carry a pooled standing-price jump solve a quadratic (the smaller root is
the maximizer), the remaining indices are linear-coefficient updates
clamped to [0, 1].  One sweep costs O(n) via a backward suffix pass with
the pre-sweep parameters and a forward prefix product with the freshly
updated ones; an O(n^2) per-coordinate path is kept for verification.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .model import MonotoneCurve, PooledData, ThetaVector, interpolate, theta_to_cdf

try:
    from numba import njit as _njit
except ImportError:  # numba is the optional "fast" extra
    _njit = None

_ASSERT_SLACK = 1e-9


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
    coef: np.ndarray = None
    is_jump: np.ndarray = None

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


def compute_A(theta: ThetaVector, i: int, ctx: LikelihoodContext) -> float:
    """Curvature weight of coordinate i (1-based): the arrival rate times
    the suffix sum of attached times weighted by the running product of
    all other coordinates up to each term.

    Division-free: a prefix product over j < i and a backward suffix
    accumulator over j > i, so zero coordinates propagate exactly.
    """
    t = np.asarray(theta.theta, dtype=float)
    n = len(t)
    if not 1 <= i <= n:
        raise ValidationError(f"coordinate index {i} out of range 1..{n}")
    k = i - 1
    ttilde = ctx.pooled.ttilde
    suffix = 0.0
    for j in range(n - 1, k, -1):
        suffix = t[j] * (ttilde[j] + suffix)
    prefix = float(np.prod(t[:k])) if k else 1.0
    return ctx.lambda_hat * prefix * (ttilde[k] + suffix)


def _case1_root(A: float, B: float) -> float:
    # smaller root of A x^2 - (A+B+1) x + B, written to avoid
    # cancellation and to hit the A -> 0 limit B/(B+1) exactly
    s = A + B + 1.0
    disc = s * s - 4.0 * A * B
    return 2.0 * B / (s + math.sqrt(max(disc, 0.0)))


def coord_update(i: int, theta: ThetaVector, ctx: LikelihoodContext) -> float:
    """Exact maximizer of the objective in coordinate i (1-based) with
    all other coordinates held fixed."""
    A = compute_A(theta, i, ctx)
    b = float(ctx.coef[i - 1])
    if ctx.is_jump[i - 1]:
        return _case1_root(A, b)
    if b <= 0.0:
        return 0.0
    if A <= b:
        return 1.0
    return b / A


def _sweep_py(theta, ttilde, coef, is_jump, lam, freeze):
    n = theta.shape[0]
    W = np.empty(n)
    W[n - 1] = ttilde[n - 1]
    for i in range(n - 2, -1, -1):
        W[i] = ttilde[i] + theta[i + 1] * W[i + 1]
    prefix = 1.0
    for i in range(n):
        if i >= freeze:
            A = lam * prefix * W[i]
            b = coef[i]
            if is_jump[i]:
                s = A + b + 1.0
                disc = s * s - 4.0 * A * b
                if disc < 0.0:
                    disc = 0.0
                theta[i] = 2.0 * b / (s + math.sqrt(disc))
            elif b <= 0.0:
                theta[i] = 0.0
            elif A <= b:
                theta[i] = 1.0
            else:
                theta[i] = b / A
        prefix *= theta[i]


_sweep_fast = _njit(cache=True)(_sweep_py) if _njit is not None else _sweep_py


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
                      constrained: bool = False, freeze_prefix: int = None,
                      fast: bool = True, check_updates: bool = False,
                      log_path=None) -> AscentResult:
    """Cyclic coordinate maximization from theta0.

    ``constrained`` holds the leading coordinates (through ``freeze_prefix``,
    1-based, defaulting to the position of the smallest pooled jump price)
    at their starting values and only updates the rest.  Terminates when a
    full sweep improves the objective by at most ``tol``.  ``fast`` selects
    the O(n)-per-sweep kernel; ``fast=False`` recomputes every coordinate
    weight from scratch.  ``check_updates`` additionally checks the
    objective after every single coordinate update (debug mode, slow);
    a decrease beyond rounding slack raises ``NumericalError``, as does
    a decreasing sweep in either mode.
    ``log_path`` writes the per-sweep objective trace as CSV.
    """
    if tol <= 0 or max_sweeps < 1:
        raise ValidationError("need tol > 0 and max_sweeps >= 1")
    theta = np.asarray(theta0.theta, dtype=float).copy()
    n = len(theta)
    if n != ctx.n:
        raise ValidationError("theta0 length does not match the pooled grid")
    freeze = 0
    if constrained:
        if freeze_prefix is None:
            if ctx.pooled.ell == 0:
                raise ValidationError("constrained mode needs at least one jump")
            freeze_prefix = int(ctx.pooled.u[0])
        freeze = int(freeze_prefix)
        if not 0 <= freeze <= n:
            raise ValidationError(f"freeze_prefix {freeze} out of range 0..{n}")

    current = _log_lik_arr(theta, ctx)
    if not np.isfinite(current):
        raise NumericalError(
            "objective is not finite at the starting point; clip theta0 into "
            "the feasible region first")
    history = [current]
    converged = False
    for _ in range(max_sweeps):
        if fast and not check_updates:
            _sweep_fast(theta, ctx.pooled.ttilde, ctx.coef, ctx.is_jump,
                        ctx.lambda_hat, freeze)
        else:
            for i in range(freeze, n):
                theta[i] = coord_update(i + 1, ThetaVector(theta), ctx)
                if check_updates:
                    after = _log_lik_arr(theta, ctx)
                    slack = _ASSERT_SLACK * (1.0 + abs(current))
                    if not after >= current - slack:
                        raise NumericalError(
                            f"coordinate update {i + 1} decreased the "
                            f"objective: {current} -> {after}")
                    current = max(current, after)
        new = _log_lik_arr(theta, ctx)
        slack = _ASSERT_SLACK * (1.0 + abs(history[-1]))
        if not new >= history[-1] - slack:
            raise NumericalError(
                f"sweep decreased the objective: {history[-1]} -> {new}")
        improvement = new - history[-1]
        history.append(new)
        if improvement <= tol:
            converged = True
            break

    if log_path is not None:
        path = Path(log_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep", "loglik"])
            for s, v in enumerate(history):
                writer.writerow([s, repr(float(v))])
    return AscentResult(ThetaVector(theta), tuple(history), converged)


def reconstruct_cdf(theta_hat: ThetaVector, z: np.ndarray) -> MonotoneCurve:
    """Piecewise-linear CDF estimate through the cumulative-product step
    values on the pooled grid, anchored at (0, 0)."""
    return interpolate(theta_to_cdf(theta_hat, np.asarray(z, dtype=float)),
                       anchor_zero=True)
