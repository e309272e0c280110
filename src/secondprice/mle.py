"""Profile log-likelihood in the survival-ratio parameters and its two
maximizers: the paper's coordinate ascent and the projected Newton
solver that ``fit`` uses.

Each coordinate update is available in closed form: interior indices that
carry a pooled standing-price jump solve a quadratic (the smaller root is
the maximizer), the remaining indices are linear-coefficient updates
clamped to [0, 1].  One kernel, ``_sweep``, applies the rule to a range
of coordinates in O(n): a backward suffix pass with the pre-sweep
parameters and a forward prefix product with the freshly updated ones.
The ascent calls it once per sweep, or once per coordinate when every
update is checked; it is the reference the solver is tested against.

:func:`projected_newton` maximizes the same objective in the log-ratios
ln(theta_i), where it is concave with a tridiagonal Hessian: each
iteration builds its tridiagonal system with ``_newton_system``, in
vectorised numpy with no Python loop over coordinates, and solves it once.
"""

from __future__ import annotations

import functools
import importlib.util
import logging
import math
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import NumericalError, ValidationError
from .model import MonotoneCurve, PooledData, ThetaVector

_ASSERT_SLACK = 1e-9
_ARMIJO = 1e-4         # sufficient-increase fraction of the line search
_MAX_HALVINGS = 60
_RIDGE = 1e-12         # relative diagonal term for zero-curvature groups
_LOG_A_CAP = 600.0     # ln of the largest curvature weight A used as is
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LikelihoodContext:
    """Pooled data plus the fixed arrays the objective needs.

    ``coef[i]`` is the coefficient of ln(theta_i): the count of final
    selling prices at or above rank i+1 plus, when any jump exists, the
    number of pooled jump prices strictly above rank i+1.  Neither count
    rises with i, so the positive coefficients are the prefix
    ``coef[:n_positive]``.  ``is_jump`` flags the positions of the
    pooled non-reserve standing prices.
    """

    pooled: PooledData
    lambda_hat: float
    coef: np.ndarray = field(init=False)
    is_jump: np.ndarray = field(init=False)
    n_positive: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.lambda_hat < math.inf:
            raise ValidationError("lambda_hat must be positive and finite")
        p = self.pooled
        coef = p.qsize.astype(float) + (p.ell - p.l)
        is_jump = np.zeros(p.n, dtype=bool)
        is_jump[p.u - 1] = True
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "is_jump", is_jump)
        object.__setattr__(self, "n_positive", int(np.count_nonzero(coef)))

    @property
    def n(self) -> int:
        return self.pooled.n


def _log_lik_arr(theta: np.ndarray, ctx: LikelihoodContext) -> float:
    # array methods: the np.sum/np.any wrappers cost more than a small grid's sums
    val = -ctx.lambda_hat * float((ctx.pooled.ttilde * theta.cumprod()).sum())
    logged, jumps = theta[:ctx.n_positive], theta[ctx.is_jump]
    if (logged == 0.0).any() or (jumps >= 1.0).any():
        return -np.inf
    if logged.size:
        val += float((ctx.coef[:ctx.n_positive] * np.log(logged)).sum())
    if jumps.size:
        val += float(np.log1p(-jumps).sum())
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
    quadratic's smaller root, the others b/A clamped to [0, 1].  The
    loops run on Python floats, faster than numpy scalars and rounding alike.
    """
    t, ttilde, coef, is_jump = (a.tolist() for a in (theta, ttilde, coef, is_jump))
    n = len(t)
    W = [0.0] * n
    W[n - 1] = ttilde[n - 1]
    for i in range(n - 2, lo - 1, -1):
        W[i] = ttilde[i] + t[i + 1] * W[i + 1]
    prefix = 1.0
    for i in range(lo):
        prefix *= t[i]
    for i in range(lo, hi):
        A = lam * prefix * W[i]
        b = coef[i]
        if is_jump[i]:
            t[i] = _case1_root(A, b)
        elif b <= 0.0:
            t[i] = 0.0
        elif A <= b:
            t[i] = 1.0
        else:
            t[i] = b / A
        prefix *= t[i]
    theta[lo:hi] = t[lo:hi]


def _check_ascent(before: float, after: float, what: str) -> None:
    if not after >= before - _ASSERT_SLACK * (1.0 + abs(before)):
        raise NumericalError(
            f"{what} decreased the objective: {before} -> {after}")


@dataclass(frozen=True)
class AscentResult:
    """Final parameters plus the objective trace, one value per sweep of
    :func:`coordinate_ascent` or iteration of :func:`projected_newton`."""

    theta: ThetaVector
    history: tuple
    converged: bool

    @property
    def sweeps(self) -> int:
        return len(self.history) - 1

    @property
    def loglik(self) -> float:
        return self.history[-1]


def _start(ctx: LikelihoodContext, theta0: ThetaVector, tol: float,
           max_sweeps: int, constrained: bool, end: int):
    """Checked copy of theta0 with its coordinates from ``end`` on set to
    0, the first free index, and the objective there."""
    if not 0.0 < tol < math.inf or max_sweeps < 1:
        raise ValidationError("need a finite tol > 0 and max_sweeps >= 1")
    theta = np.asarray(theta0.theta, dtype=float).copy()
    if len(theta) != ctx.n:
        raise ValidationError("theta0 length does not match the pooled grid")
    freeze = 0
    if constrained:
        if ctx.pooled.ell == 0:
            raise ValidationError("constrained mode needs at least one jump")
        freeze = int(ctx.pooled.u[0])
    theta[end:] = 0.0
    current = _log_lik_arr(theta, ctx)
    if not np.isfinite(current):
        raise NumericalError(
            "objective is not finite at the starting point; clip theta0 into "
            "the feasible region first")
    return theta, freeze, current


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
    theta, freeze, current = _start(ctx, theta0, tol, max_sweeps, constrained, ctx.n)
    n = len(theta)
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


def projected_newton(ctx: LikelihoodContext, theta0: ThetaVector,
                     tol: float = 1e-8, max_sweeps: int = 10000,
                     constrained: bool = False) -> AscentResult:
    """Maximize the objective from theta0 by projected Newton steps in the
    log-ratios d_i = ln(theta_i): the maximizer of
    :func:`coordinate_ascent`, in a few dozen vectorised O(n) iterations.

    In psi_i = ln G(z_i) = d_1 + ... + d_i the objective is
    -lam sum ttilde_i e^psi_i + sum coef_i d_i + sum_jump ln(1 - e^d_i),
    which is concave with a tridiagonal Hessian.  Coordinates from
    ``ctx.n_positive`` on, where ``coef`` is 0, are 0 in closed form,
    and ``constrained`` fixes psi at the frozen prefix
    of :func:`coordinate_ascent`.  The bound d_i <= 0 (theta_i <= 1) at
    non-jump coordinates is handled by an epsilon-active set (Bertsekas,
    1982) with a per-coordinate width: a non-jump whose gradient is
    positive and whose own one-coordinate maximizer is 1 (the ascent's
    test A <= b, which holds within ln(b / (A theta)) of the bound) is
    tied to its free predecessor (d_i = 0), and the free coordinates take
    the reduced Newton step of :func:`_newton_system`, one tridiagonal
    solve.  An Armijo search runs along the projection arc, which is the
    straight line d + alpha * step when every coordinate left free is a
    jump (as when all reserves lie below the smallest jump price and the
    fit is constrained): no bound can bind then.  The first
    iteration instead moves towards every coordinate's exact one-coordinate
    maximizer at once (the rule of :func:`_sweep`, vectorised), which
    repairs a start far below the optimum where the objective is nearly
    linear; the same move backs up a Newton arc that finds no ascent.

    Stops when the Newton decrement is at most ``tol`` and every active
    d_i is 0, or when an accepted step leaves the objective unchanged
    (``tol`` below the decrement's rounding floor), which logs a debug
    record; both count as converged.  Reaching ``max_sweeps`` iterations
    first logs a warning.
    ``history[0]`` is the objective at theta0 with the closed-form zeros
    applied; each iteration appends one value.
    """
    m = ctx.n_positive
    theta, lo, current = _start(ctx, theta0, tol, max_sweeps, constrained, m)
    base = float(np.sum(np.log(theta[:lo])))
    jump = ctx.is_jump[lo:m]
    bounded = ~jump
    c = ctx.coef[lo:m]
    log_c = np.log(c)
    lam_t = ctx.lambda_hat * ctx.pooled.ttilde[lo:m]
    d = np.log(theta[lo:m])
    d[bounded] = np.minimum(d[bounded], 0.0)
    if not bounded.any():
        bounded = None
    at_jump = slice(None) if bounded is None else jump

    def objective(trial):
        if (trial[at_jump] >= 0.0).any():     # theta >= 1 at a jump
            return -np.inf
        theta[lo:m] = np.exp(trial)
        return _log_lik_arr(theta, ctx)

    history = [current]
    converged = m == lo
    while not converged:
        grad, suffix, active, starts, rhs, diag, off = _newton_system(
            d, base, lam_t, c, log_c, jump, bounded)
        if len(rhs) == 1:       # dgtsv's wrapper takes no empty off-diagonal
            dpsi = rhs / diag
        else:
            *_, dpsi, info = _dgtsv()(off, diag, off, rhs)
            if info:
                raise NumericalError(f"the Newton system is singular (dgtsv info {info})")
        decrement = float(rhs @ dpsi)
        step = dpsi             # each group's move: the differences of dpsi
        step[1:] -= dpsi[:-1]
        if decrement <= tol and (active is None or not np.any(d[active])):
            converged = True
            break
        if len(history) > max_sweeps:
            _log.warning("projected Newton stopped at max_sweeps=%d without "
                         "converging; Newton decrement %.3g (tol %.3g)",
                         max_sweeps, decrement, tol)
            break

        if active is None:
            def newton_arc(alpha):
                return d + alpha * step
        else:
            def newton_arc(alpha):
                trial = d.copy()
                trial[starts] += alpha * step
                trial[active] = 0.0
                trial[bounded] = np.minimum(trial[bounded], 0.0)
                return trial

        found = None
        if len(history) > 1:
            found = _armijo(newton_arc, d, grad, current, objective)
        if found is None:
            target = _coordinate_maximizers(suffix, d, c, log_c, jump)
            found = _armijo(lambda alpha: d + alpha * (target - d), d, grad,
                            current, objective)
        if found is None:
            raise NumericalError(
                f"projected Newton found no ascent step at iteration "
                f"{len(history)} (Newton decrement {decrement:.3g})")
        d, new = found
        history.append(new)
        if new == current:      # the objective's rounding floor: no step can gain
            _log.debug("projected Newton stopped on a step that left the objective "
                       "unchanged; Newton decrement %.3g (tol %.3g)", decrement, tol)
            converged = True
        current = new
    theta[lo:m] = np.exp(d)
    return AscentResult(ThetaVector(theta), tuple(history), converged)


@functools.cache
def _dgtsv():
    """LAPACK's tridiagonal solver dgtsv, found at the first solve in a
    process rather than at start-up, since most commands never fit.

    ``scipy.linalg.lapack`` re-exports it from the extension module
    ``scipy.linalg._flapack``, but the package import behind it costs a
    fresh process about 0.3 s (it pulls in ``scipy._lib._array_api``,
    numpy.testing, numpy.ma and numpy.random), a dozen times the
    extension alone.  So the extension is loaded by its file path after
    a plain ``import scipy``, which runs scipy's platform and library
    set-up; when scipy.linalg is imported already this returns the
    loaded module.  ``scipy.linalg.lapack`` serves when the extension
    cannot be loaded that way.
    """
    try:
        return _flapack().dgtsv
    except (ImportError, OSError):
        from scipy.linalg.lapack import dgtsv
        return dgtsv


def _flapack():
    """The extension module ``scipy.linalg._flapack``, loaded from its file."""
    import scipy
    finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError("no scipy.linalg._flapack extension beside scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _armijo(arc, d, grad, current, objective):
    """First point of arc(1), arc(1/2), ... with a sufficient increase,
    as (point, objective), or None."""
    alpha = 1.0
    for _ in range(_MAX_HALVINGS):
        trial = arc(alpha)
        new = objective(trial)
        if new >= current + _ARMIJO * max(float(grad @ (trial - d)), 0.0):
            return trial, new
        alpha *= 0.5
    return None


def _log_a(suffix, d):
    """ln A_i = ln(suffix_i) - d_i, the log curvature weight of :func:`_sweep`
    from the suffix sums of the weights w; -inf where a suffix is 0."""
    with np.errstate(divide="ignore"):
        return np.log(suffix) - d


def _coordinate_maximizers(suffix, d, c, log_c, jump):
    """ln of each coordinate's exact maximizer with the others held at
    the current point ``d``, from the suffix sums of the weights w.

    Jumps take the smaller quadratic root, the others b/A capped at 1.
    Beyond e^600 the root is taken as b/A, its limit, in the log.
    """
    log_a = _log_a(suffix, d)
    A = np.exp(np.minimum(log_a, _LOG_A_CAP))
    s = A + c + 1.0
    root = 2.0 * c / (s + np.sqrt(np.maximum(s * s - 4.0 * A * c, 0.0)))
    return np.where(jump & (log_a <= _LOG_A_CAP), np.log(root),
                    np.minimum(log_c - log_a, 0.0))


def _newton_system(d, base, lam_t, c, log_c, jump, bounded):
    """The Newton system at the log-ratios ``d``, ``base`` being ln of the
    frozen prefix and ``log_c`` ln c: ``(grad, suffix, active, starts, rhs,
    diag, off)``.

    ``grad`` is the gradient and ``suffix`` the sums of the weights w from
    each coordinate on.  ``active`` flags the tied bound coordinates and
    ``starts`` indexes the free ones.  Free coordinate k starts a group
    whose psi is shared by the active coordinates after it.  In the group
    values the negated Hessian is tridiagonal (``diag``, ``off``), coupled
    only through the jump terms, with right-hand side ``rhs``; a relative
    ridge keeps it solvable when a group's weights underflow to 0 with no
    jump next to it.  A jump is never active, and the last coordinate (the
    top final price) is a jump, so ``starts`` is never empty.  ``bounded``
    flags the non-jump coordinates, or is None when there are none: then
    no coordinate is active, each is its own group, and ``active`` and
    ``starts`` are None.
    """
    w = lam_t * np.exp(base + np.cumsum(d))
    suffix = np.cumsum(w[::-1])[::-1]
    dj = d[jump]
    odds = np.exp(dj) / -np.expm1(dj)       # theta / (1 - theta) at each jump
    grad = c - suffix
    grad[jump] -= odds
    if bounded is None:
        active = starts = None
        curv, cs, js = w, c, jump
    else:
        # the ascent's test A <= b, on the bounded coordinates alone
        active = np.zeros_like(bounded)
        active[bounded] = ((_log_a(suffix[bounded], d[bounded]) <= log_c[bounded])
                           & (grad[bounded] > 0.0))
        starts = np.flatnonzero(~active)
        first = int(starts[0])
        curv = np.add.reduceat(w[first:], starts - first)
        cs, js = c[starts], jump[starts]
    pull = np.zeros(len(cs) + 1)    # -d/dd of ln(1 - e^d), by group
    bend = np.zeros(len(cs) + 1)    # -d2/dd2 of ln(1 - e^d), by group
    pull[:-1][js] = odds
    bend[:-1][js] = odds * (1.0 + odds)
    rhs = cs - np.append(cs[1:], 0.0) - curv - pull[:-1] + pull[1:]
    diag = curv + bend[:-1] + bend[1:]
    diag += _RIDGE * (float(diag.max()) or 1.0)
    return grad, suffix, active, starts, rhs, diag, -bend[1:-1]


def reconstruct_cdf(theta_hat: ThetaVector, z: np.ndarray) -> MonotoneCurve:
    """Piecewise-linear CDF estimate through F(z_i) = 1 - prod_{j<=i}
    theta_j on the pooled grid, anchored at (0, 0)."""
    values = np.clip(np.maximum.accumulate(1.0 - np.cumprod(theta_hat.theta)), 0.0, 1.0)
    return MonotoneCurve.from_zero(z, values)
