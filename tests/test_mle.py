"""Profile log-likelihood, closed-form coordinate updates, the
coordinate-ascent driver, checked against direct-definition oracles, and
the projected Newton solver, checked against the ascent."""

import logging
import math
from itertools import count

import numpy as np
import pytest
from helpers import (envelope_max, naive_curvature_weight, naive_loglik)
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (AuctionRecord, LikelihoodContext, NumericalError,
                         ObservedDataset, SimConfig, ThetaVector,
                         ValidationError, ValuationDistribution,
                         coordinate_ascent, log_lik, pool, projected_newton,
                         reconstruct_cdf, run_study)
from secondprice import mle
from secondprice.mle import _RIDGE, _case1_root, _log_a, _newton_system, _sweep
from secondprice.pipeline import clip_theta0, fit_initial, initial_theta


def small_context(seed=5, K=6, lam_hat=1.2):
    dataset = run_study(SimConfig(lam=0.8, tau=10.0, K=K, seed=seed,
                                  reserve_policy=0.2),
                        ValuationDistribution.uniform(0.5, 3.0))
    return LikelihoodContext(pool(dataset), lam_hat)


def feasible_theta(ctx, rng):
    return ThetaVector(rng.uniform(0.05, 0.95, ctx.n))


def zero_tail_context():
    # the first and third auctions' waits sum to tau, so the times
    # attached to their final prices (2.5 and the top price 5.0) are 0
    tau = 10.0
    auctions = (AuctionRecord(1.0, tau, ((2.0, 3.0), (5.0, 7.0)), True),
                AuctionRecord(0.5, tau, ((1.5, 2.0), (3.0, 4.0)), True),
                AuctionRecord(0.7, tau, ((2.5, 10.0),), True))
    return LikelihoodContext(pool(ObservedDataset(auctions, tau)), 0.3)


def kernel_update(theta, i, ctx):
    """theta after the production kernel updates coordinate i (1-based)
    alone."""
    t = np.asarray(theta, dtype=float).copy()
    _sweep(t, ctx.pooled.ttilde, ctx.coef, ctx.is_jump, ctx.lambda_hat,
           i - 1, i)
    return t


def implied_update(A, b, jump):
    """Exact one-coordinate maximizer for curvature weight A and log
    coefficient b."""
    if jump:
        return _case1_root(A, b)
    if b <= 0.0:
        return 0.0
    return 1.0 if A <= b else b / A


def oracle_update(theta, i, ctx):
    A = naive_curvature_weight(theta, i, ctx.pooled, ctx.lambda_hat)
    return implied_update(A, float(ctx.coef[i - 1]), ctx.is_jump[i - 1])


def assert_kernel_matches_oracle(theta, ctx):
    theta = np.asarray(theta, dtype=float)
    for i in range(1, ctx.n + 1):
        new = kernel_update(theta, i, ctx)
        rest = np.arange(ctx.n) != i - 1
        assert np.array_equal(new[rest], theta[rest])
        assert new[i - 1] == pytest.approx(oracle_update(theta, i, ctx),
                                           rel=1e-12, abs=1e-12)


class TestLogLik:
    def test_matches_direct_definition(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            ctx = small_context(seed=seed)
            theta = feasible_theta(ctx, rng)
            ours = log_lik(theta, ctx)
            ref = naive_loglik(theta.theta, ctx.pooled, ctx.lambda_hat)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_infeasible_points_are_minus_inf(self):
        ctx = small_context()
        t = np.full(ctx.n, 0.5)
        jump_pos = int(np.flatnonzero(ctx.is_jump)[0])
        t_bad = t.copy()
        t_bad[jump_pos] = 1.0
        assert log_lik(ThetaVector(t_bad), ctx) == -np.inf
        pos = int(np.flatnonzero(ctx.coef > 0)[0])
        t_bad = t.copy()
        t_bad[pos] = 0.0
        assert log_lik(ThetaVector(t_bad), ctx) == -np.inf

    def test_coefficients_are_nonnegative(self):
        for seed in range(5):
            ctx = small_context(seed=seed)
            assert np.all(ctx.coef >= 0)
            assert np.all(ctx.is_jump[ctx.pooled.u - 1])


    @pytest.mark.parametrize("lam_hat", [0.0, -1.0])
    def test_rate_must_be_positive(self, lam_hat):
        with pytest.raises(ValidationError, match="lambda_hat must be positive"):
            small_context(lam_hat=lam_hat)


class TestCurvatureWeight:
    # the kernel's weight is checked through the update it implies
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        ctx = small_context(seed=2, K=8)
        assert_kernel_matches_oracle(feasible_theta(ctx, rng).theta, ctx)

    def test_all_ones_gives_suffix_time_sum(self):
        ctx = small_context(seed=3)
        theta = np.ones(ctx.n)
        for i in (1, ctx.n // 2, ctx.n):
            A = ctx.lambda_hat * float(np.sum(ctx.pooled.ttilde[i - 1:]))
            expected = implied_update(A, float(ctx.coef[i - 1]),
                                      ctx.is_jump[i - 1])
            assert kernel_update(theta, i, ctx)[i - 1] == pytest.approx(
                expected, rel=1e-12, abs=1e-12)


class TestClosedFormRoot:
    def test_known_value(self):
        # root of x^2 - 3x + 1 inside (0, 1)
        assert _case1_root(1.0, 1.0) == pytest.approx((3.0 - math.sqrt(5)) / 2)

    def test_zero_curvature_limit_is_exact(self):
        for b in (0.5, 1.0, 7.0):
            assert _case1_root(0.0, b) == b / (b + 1.0)

    @given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    @settings(max_examples=500, deadline=None)
    def test_root_properties(self, log_a, log_b):
        A, B = 10.0 ** log_a, 10.0 ** log_b
        x = _case1_root(A, B)
        assert 0.0 < x < 1.0
        # the discriminant (A - B + 1)^2 + 4B is strictly positive
        assert (A - B + 1.0) ** 2 + 4.0 * B > 0.0
        # stationarity of A t^2 - (A+B+1) t + B = 0 in scaled form
        resid = -A + B / x - 1.0 / (1.0 - x)
        scale = max(A, B / x, 1.0 / (1.0 - x))
        assert abs(resid) <= 1e-9 * scale

    def test_coord_update_cases(self):
        ctx = small_context(seed=4)
        theta = np.full(ctx.n, 0.5)
        cases = set()
        for i in range(1, ctx.n + 1):
            new = kernel_update(theta, i, ctx)[i - 1]
            A = naive_curvature_weight(theta, i, ctx.pooled, ctx.lambda_hat)
            b = float(ctx.coef[i - 1])
            if ctx.is_jump[i - 1]:
                cases.add("jump")
                assert 0.0 < new < 1.0
                assert new == pytest.approx(_case1_root(A, b), rel=1e-12)
            elif b <= 0.0:
                cases.add("zero")
                assert new == 0.0
            elif A <= b:
                cases.add("one")
                assert new == 1.0
            else:
                cases.add("ratio")
                assert new == pytest.approx(b / A, rel=1e-12)
        assert "jump" in cases and len(cases) >= 2


class TestCoordinateAscent:
    def test_history_is_monotone_and_converges(self):
        ctx = small_context(seed=6, K=10)
        theta0 = feasible_theta(ctx, np.random.default_rng(2))
        res = coordinate_ascent(ctx, theta0, tol=1e-10)
        assert res.converged
        hist = np.asarray(res.history)
        assert np.all(np.diff(hist) >= -1e-9 * (1.0 + np.abs(hist[:-1])))
        assert res.loglik >= log_lik(theta0, ctx)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_check_mode_matches_production_sweep(self, constrained):
        # per-coordinate kernel calls reproduce the one-call sweep bit for
        # bit: W[i] only reads coordinates the sweep has not reached yet
        ctx = small_context(seed=7, K=10)
        theta0 = feasible_theta(ctx, np.random.default_rng(3))
        fast = coordinate_ascent(ctx, theta0, tol=1e-10,
                                 constrained=constrained)
        checked = coordinate_ascent(ctx, theta0, tol=1e-10,
                                    constrained=constrained,
                                    check_updates=True)
        assert np.array_equal(fast.theta.theta, checked.theta.theta)
        assert fast.history == checked.history
        assert fast.converged and checked.converged

    def test_check_updates_path(self):
        ctx = small_context(seed=8)
        theta0 = feasible_theta(ctx, np.random.default_rng(4))
        res = coordinate_ascent(ctx, theta0, tol=1e-8, check_updates=True)
        assert res.converged

    def test_check_updates_raises_on_a_decrease(self, monkeypatch):
        # a zero-probability value at a coordinate with a positive log
        # coefficient drives the objective towards -inf
        ctx = small_context(seed=8)
        theta0 = feasible_theta(ctx, np.random.default_rng(4))
        def collapse(theta, ttilde, coef, is_jump, lam, lo, hi):
            theta[lo:hi] = 1e-300

        monkeypatch.setattr("secondprice.mle._sweep", collapse)
        with pytest.raises(NumericalError, match="decreased the objective"):
            coordinate_ascent(ctx, theta0, tol=1e-8, check_updates=True)

    def test_constrained_freezes_prefix(self):
        ctx = small_context(seed=9, K=10)
        theta0 = feasible_theta(ctx, np.random.default_rng(5))
        res = coordinate_ascent(ctx, theta0, constrained=True)
        freeze = int(ctx.pooled.u[0])
        assert np.array_equal(res.theta.theta[:freeze],
                              theta0.theta[:freeze])
        assert res.loglik >= log_lik(theta0, ctx)

    def test_no_jump_dataset_drives_theta_to_zero(self):
        # auctions sold at the reserve contribute no selling-price or
        # jump terms, so every coefficient is zero and the optimum is 0
        a1 = AuctionRecord(1.0, 10.0, (), True)
        a2 = AuctionRecord(2.0, 10.0, (), True)
        ctx = LikelihoodContext(pool(ObservedDataset((a1, a2), 10.0)), 1.0)
        res = coordinate_ascent(ctx, ThetaVector(np.full(2, 0.5)))
        assert res.converged
        assert np.array_equal(res.theta.theta, [0.0, 0.0])

    def test_infeasible_start_rejected(self):
        ctx = small_context(seed=10)
        bad = np.full(ctx.n, 0.5)
        bad[int(np.flatnonzero(ctx.is_jump)[0])] = 1.0
        with pytest.raises(NumericalError):
            coordinate_ascent(ctx, ThetaVector(bad))

    def test_zero_tail_time(self):
        ctx = zero_tail_context()
        assert np.count_nonzero(ctx.pooled.ttilde == 0.0) == 2
        assert ctx.pooled.ttilde[-1] == 0.0
        theta0 = ThetaVector(np.full(ctx.n, 0.5))
        assert_kernel_matches_oracle(theta0.theta, ctx)
        fast = coordinate_ascent(ctx, theta0, tol=1e-12)
        checked = coordinate_ascent(ctx, theta0, tol=1e-12,
                                    check_updates=True)
        assert fast.converged and checked.converged
        assert np.array_equal(fast.theta.theta, checked.theta.theta)
        assert fast.history == checked.history
        assert_kernel_matches_oracle(fast.theta.theta, ctx)
        # the top price has no attached time, so its weight is 0 and its
        # coordinate sits at the zero-curvature root b / (b + 1)
        b = float(ctx.coef[-1])
        assert fast.theta.theta[-1] == b / (b + 1.0)

    def test_warns_when_max_sweeps_is_reached(self, caplog):
        ctx = small_context(seed=6, K=10)
        theta0 = feasible_theta(ctx, np.random.default_rng(2))
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            res = coordinate_ascent(ctx, theta0, tol=1e-10, max_sweeps=1)
        assert not res.converged and res.sweeps == 1
        [record] = caplog.records
        assert record.name.startswith("secondprice")
        assert "max_sweeps=1" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            assert coordinate_ascent(ctx, theta0, tol=1e-10).converged
        assert not caplog.records

    def test_invalid_arguments(self):
        ctx = small_context(seed=12)
        ok = ThetaVector(np.full(ctx.n, 0.5))
        with pytest.raises(ValidationError):
            coordinate_ascent(ctx, ok, tol=0.0)
        with pytest.raises(ValidationError):
            coordinate_ascent(ctx, ThetaVector(np.full(ctx.n + 1, 0.5)))


def clipped_start(dataset):
    """Likelihood context and the clipped initial estimate ``fit`` starts
    from."""
    p = pool(dataset)
    lam_hat, _, _, f_init = fit_initial(dataset)
    ctx = LikelihoodContext(p, lam_hat)
    return ctx, clip_theta0(initial_theta(f_init, p.z), ctx)


def seed_of(*entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def criterion_dataset(kind, K, seed, batch=False):
    dist = (ValuationDistribution.uniform(1.0, 20.0) if kind == "uniform"
            else ValuationDistribution.gamma(10.0, 2.0))
    ds = run_study(SimConfig(lam=1.0, tau=100.0, K=K, seed=seed), dist)
    if batch:
        # the first of the five band batches of criterion 9
        chunk = np.array_split(np.random.default_rng(seed).permutation(K), 5)[0]
        ds = ds.take(chunk)
    return ds


def assert_matches_ascent(ctx, theta0, constrained, tol=1e-8):
    ref = coordinate_ascent(ctx, theta0, tol=tol, constrained=constrained)
    res = projected_newton(ctx, theta0, tol=tol, constrained=constrained)
    assert res.converged
    assert res.loglik >= ref.loglik - 1e-9 * (1.0 + abs(ref.loglik))
    gap = np.abs(np.cumprod(res.theta.theta) - np.cumprod(ref.theta.theta))
    assert np.max(gap) <= 1e-5
    return res


class TestProjectedNewton:
    # datasets of acceptance criteria 3 (uniform K=100 and gamma K=1000)
    # and 9 (one band batch of uniform K=1000), by their own seeds
    WORKLOADS = (
        [pytest.param("uniform", 100, seed_of(7, 0, rep), False,
                      id=f"c3-uniform-K100-rep{rep}") for rep in range(3)]
        + [pytest.param("gamma", 1000, seed_of(7, 0, rep), False,
                        id=f"c3-gamma-K1000-rep{rep}") for rep in range(2)]
        + [pytest.param("uniform", 1000, seed_of(37, rep), True,
                        id=f"c9-uniform-K1000-batch-rep{rep}")
           for rep in range(2)])

    @pytest.mark.parametrize("kind, K, seed, batch", WORKLOADS)
    @pytest.mark.parametrize("constrained", [True, False])
    def test_matches_coordinate_ascent(self, kind, K, seed, batch,
                                       constrained):
        ctx, theta0 = clipped_start(criterion_dataset(kind, K, seed, batch))
        res = assert_matches_ascent(ctx, theta0, constrained)
        if constrained:
            freeze = int(ctx.pooled.u[0])
            assert np.array_equal(res.theta.theta[:freeze],
                                  theta0.theta[:freeze])

    @pytest.mark.parametrize("constrained", [True, False])
    def test_matches_ascent_from_random_starts(self, constrained):
        rng = np.random.default_rng(11)
        for seed in range(12):
            ctx = small_context(seed=seed, K=8)
            assert_matches_ascent(ctx, feasible_theta(ctx, rng), constrained,
                                  tol=1e-12)

    @pytest.mark.parametrize("reserve", [0.0, 0.5])
    def test_reserves_below_the_first_jump_leave_no_bound(self, reserve, monkeypatch):
        # with every reserve below the smallest jump price the constrained
        # fit frees only jump coordinates, so each system takes the fast
        # path; the unconstrained fit frees the reserves and does not
        ds = run_study(SimConfig(lam=1.0, tau=100.0, K=100, seed=seed_of(37, 7),
                                 reserve_policy=reserve),
                       ValuationDistribution.uniform(1.0, 20.0))
        ctx, theta0 = clipped_start(ds)
        assert np.all(ds.reserve < ctx.pooled.xbar[0])
        fast = []

        def spy(*args):
            fast.append(args[-1] is None)
            return _newton_system(*args)

        monkeypatch.setattr(mle, "_newton_system", spy)
        for constrained in (True, False):
            fast.clear()
            assert_matches_ascent(ctx, theta0, constrained)
            assert fast and set(fast) == {constrained}

    def test_start_whose_survival_underflows(self):
        # two ratios of 1e-200 take G(z) below the smallest double, so
        # every later curvature weight starts at exactly 0
        ctx = small_context(seed=3, K=8)
        theta = feasible_theta(ctx, np.random.default_rng(0)).theta
        theta[:2] = 1e-200
        for constrained in (True, False):
            assert_matches_ascent(ctx, ThetaVector(theta), constrained,
                                  tol=1e-12)

    def test_history_never_decreases(self):
        ctx, theta0 = clipped_start(criterion_dataset("uniform", 100,
                                                      seed_of(7, 0, 0)))
        for constrained in (True, False):
            res = projected_newton(ctx, theta0, constrained=constrained)
            assert res.sweeps >= 1
            assert np.all(np.diff(res.history) >= 0.0)
            assert res.history[0] >= log_lik(theta0, ctx)
            assert res.loglik == log_lik(res.theta, ctx)

    def test_zero_tail_time(self):
        ctx = zero_tail_context()
        theta0 = ThetaVector(np.full(ctx.n, 0.5))
        for constrained in (True, False):
            res = assert_matches_ascent(ctx, theta0, constrained, tol=1e-12)
            # the top price has no attached time, so its coordinate sits
            # at the zero-curvature root b / (b + 1)
            b = float(ctx.coef[-1])
            assert res.theta.theta[-1] == pytest.approx(b / (b + 1.0),
                                                        rel=1e-9)

    def test_all_coordinates_frozen(self):
        # the only jump is the top price, so constrained mode freezes all
        tau = 10.0
        auctions = (AuctionRecord(1.0, tau, ((5.0, 2.0),), True),
                    AuctionRecord(2.0, tau, (), True),
                    AuctionRecord(3.0, tau, (), False))
        ctx = LikelihoodContext(pool(ObservedDataset(auctions, tau)), 0.4)
        assert int(ctx.pooled.u[0]) == ctx.n
        theta0 = ThetaVector(np.array([0.9, 0.8, 0.7, 0.5]))
        res = projected_newton(ctx, theta0, constrained=True)
        assert res.converged and res.sweeps == 0
        assert np.array_equal(res.theta.theta, theta0.theta)
        assert res.loglik == log_lik(theta0, ctx)

    @pytest.mark.parametrize("lam_hat", [0.01, 0.1])
    def test_one_free_group_divides_instead_of_solving(self, lam_hat, monkeypatch):
        # the first coordinate is tied to its bound at every iteration, so
        # each Newton system has one group, which dgtsv's wrapper refuses
        ds = ObservedDataset([AuctionRecord(1.0, 10.0, ((2.0, 3.0),), True)], 10.0)
        ctx = LikelihoodContext(pool(ds), lam_hat)
        theta0 = ThetaVector(np.full(ctx.n, 0.5))
        groups = []

        def spy(*args):
            system = _newton_system(*args)
            groups.append(len(system[3]))
            return system

        monkeypatch.setattr(mle, "_newton_system", spy)
        res = projected_newton(ctx, theta0)
        ref = coordinate_ascent(ctx, theta0, tol=1e-14)
        assert res.converged
        assert groups and set(groups) == {1}
        assert abs(res.loglik - ref.loglik) <= 5e-16
        np.testing.assert_allclose(res.theta.theta, ref.theta.theta, rtol=0, atol=1e-8)

    def test_no_jumps_gives_zero_in_closed_form(self):
        # every coefficient is zero, so the free range is empty and every
        # coordinate is 0 without an iteration
        a1 = AuctionRecord(1.0, 10.0, (), True)
        a2 = AuctionRecord(2.0, 10.0, (), True)
        ctx = LikelihoodContext(pool(ObservedDataset((a1, a2), 10.0)), 1.0)
        assert not np.any(ctx.coef > 0)
        res = projected_newton(ctx, ThetaVector(np.full(2, 0.5)))
        assert res.converged and res.sweeps == 0
        assert np.array_equal(res.theta.theta, [0.0, 0.0])
        assert res.loglik == 0.0
        with pytest.raises(ValidationError):
            projected_newton(ctx, ThetaVector(np.full(2, 0.5)),
                             constrained=True)

    def test_infeasible_start_rejected(self):
        ctx = small_context(seed=10)
        bad = np.full(ctx.n, 0.5)
        bad[int(np.flatnonzero(ctx.is_jump)[0])] = 1.0
        with pytest.raises(NumericalError, match="not finite"):
            projected_newton(ctx, ThetaVector(bad))
        bad = np.full(ctx.n, 0.5)
        bad[0] = 0.0
        with pytest.raises(NumericalError, match="not finite"):
            projected_newton(ctx, ThetaVector(bad))

    def test_warns_when_max_sweeps_is_reached(self, caplog):
        ctx, theta0 = clipped_start(criterion_dataset("uniform", 100,
                                                      seed_of(7, 0, 1)))
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            res = projected_newton(ctx, theta0, max_sweeps=1)
        assert not res.converged and res.sweeps == 1
        [record] = caplog.records
        assert record.name.startswith("secondprice")
        assert "max_sweeps=1" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            assert projected_newton(ctx, theta0).converged
        assert not caplog.records

    def test_objective_that_never_increases_is_numerical_error(self,
                                                                monkeypatch):
        # each evaluation is below the last, so every point of the first
        # iteration's arc, even one that rounds back to the start, fails
        # the Armijo test
        ctx = small_context(seed=5)
        theta0 = feasible_theta(ctx, np.random.default_rng(0))
        values = count(0.0, -1.0)
        monkeypatch.setattr(mle, "_log_lik_arr", lambda theta, ctx: next(values))
        with pytest.raises(NumericalError,
                           match="found no ascent step at iteration 1"):
            projected_newton(ctx, theta0, max_sweeps=5)

    def test_invalid_arguments(self):
        ctx = small_context(seed=12)
        ok = ThetaVector(np.full(ctx.n, 0.5))
        with pytest.raises(ValidationError):
            projected_newton(ctx, ok, tol=0.0)
        with pytest.raises(ValidationError):
            projected_newton(ctx, ok, max_sweeps=0)

    def test_infinite_tolerance_rejected(self):
        # an infinite tol would report convergence after one iteration
        ctx = small_context(seed=12)
        ok = ThetaVector(np.full(ctx.n, 0.5))
        for solve in (projected_newton, coordinate_ascent):
            with pytest.raises(ValidationError, match="finite tol"):
                solve(ctx, ok, tol=math.inf)
        with pytest.raises(ValidationError):
            projected_newton(ctx, ThetaVector(np.full(ctx.n + 1, 0.5)))


def newton_inputs(seed, n, first_free):
    """Random arguments of ``_newton_system`` over n coordinates, the last
    a jump and about half the non-jumps at the bound d = 0, so that some
    non-jumps are active and some free.  The first coordinate is a jump
    when ``first_free``, else a non-jump at the bound with a ``c`` above
    every curvature weight, so it is active."""
    rng = np.random.default_rng(seed)
    jump = rng.uniform(size=n) < 0.3
    jump[-1], jump[0] = True, first_free
    d = -rng.uniform(0.001, 0.2, n)
    d[~jump & (rng.uniform(size=n) < 0.5)] = 0.0
    c = rng.uniform(0.5, 5.0, n)
    if not first_free:
        d[0], c[0] = 0.0, 1e3
    lam_t = rng.uniform(0.0, 2.0, n)
    return d, -rng.uniform(0.0, 1.0), lam_t, c, jump, ~jump


class TestNewtonSystem:
    @pytest.mark.parametrize("seed, n, first_free, groups", [
        (0, 60, True, None), (1, 60, False, None), (2, 60, True, None),
        (3, 60, False, None), (4, 3, False, 1), (5, 4, True, 2)])
    def test_matches_dense_oracle(self, seed, n, first_free, groups):
        # the objective in the log-ratios d is
        # -sum_i w_i + sum_i c_i d_i + sum_jump ln(1 - e^d_i), with
        # w_i = lam_t_i e^(base + d_1 + ... + d_i): gradient
        # c_k - S_k - [jump] odds_k and negated Hessian
        # S_max(k, l) + [k = l, jump] odds_k (1 + odds_k), S_k the sum of
        # w from k on; over the free coordinates it is taken to the group
        # values psi by x = D psi and built densely
        d, base, lam_t, c, jump, bounded = newton_inputs(seed, n, first_free)
        if groups == 1:         # every coordinate but the last is active
            d[:-1], c[:-1] = 0.0, 1e3
        grad, suffix, active, starts, rhs, diag, off = _newton_system(
            d, base, lam_t, c, np.log(c), jump, bounded)

        w = np.array([lam_t[i] * math.exp(base + math.fsum(d[:i + 1]))
                      for i in range(n)])
        S = np.array([math.fsum(w[k:]) for k in range(n)])
        o = np.zeros(n)
        o[jump] = np.exp(d[jump]) / (1.0 - np.exp(d[jump]))
        grad_ref = c - S - o
        A = S / np.exp(d)       # lam * prefix * W_k of _sweep
        active_ref = bounded & (A <= c) & (grad_ref > 0.0)
        assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))
        assert np.max(np.abs(suffix - S)) <= 1e-12 * np.max(S)
        # ln A as the coordinate-maximizer move takes it, and on the bounded
        # coordinates as the active test does
        assert np.allclose(_log_a(suffix, d), np.log(A), rtol=1e-12, atol=1e-12)
        assert np.array_equal(_log_a(suffix[bounded], d[bounded]), _log_a(suffix, d)[bounded])
        assert np.array_equal(active, active_ref)
        assert np.array_equal(starts, np.flatnonzero(~active_ref))
        assert set(np.flatnonzero(jump)) <= set(starts.tolist())
        assert active[0] != first_free
        if groups is None:
            assert np.any(active) and np.any(bounded[starts]) and len(starts) > 2
        else:
            assert len(starts) == groups

        g = len(starts)
        grad_x = grad_ref[starts]
        hess_x = S[starts][np.maximum.outer(np.arange(g), np.arange(g))]
        hess_x += np.diag(o[starts] * (1.0 + o[starts]))
        D = np.eye(g) - np.eye(g, k=-1)
        hess = D.T @ hess_x @ D
        assert np.allclose(np.triu(hess, 2), 0.0, atol=1e-9)
        hess += _RIDGE * hess.diagonal().max() * np.eye(g)
        scale = np.max(np.abs(hess))
        assert np.max(np.abs(rhs - D.T @ grad_x)) <= 1e-12 * np.max(np.abs(D.T @ grad_x))
        assert np.max(np.abs(diag - hess.diagonal())) <= 1e-12 * scale
        assert len(off) == g - 1
        for side in (-1, 1):
            assert np.max(np.abs(off - hess.diagonal(side)), initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("seed, n", [(6, 60), (7, 2), (8, 1)])
    def test_without_bounded_coordinates_each_is_its_own_group(self, seed, n):
        # every coordinate a jump: the fast path's sums are the weights
        # themselves, equal to the general formulas' reduceat over
        # one-coordinate groups with none active
        rng = np.random.default_rng(seed)
        d, c = -rng.uniform(0.001, 0.2, n), rng.uniform(0.5, 5.0, n)
        lam_t, base = rng.uniform(0.0, 2.0, n), -rng.uniform(0.0, 1.0)
        jump = np.ones(n, dtype=bool)
        fast = _newton_system(d, base, lam_t, c, np.log(c), jump, None)
        general = _newton_system(d, base, lam_t, c, np.log(c), jump, ~jump)
        assert fast[2] is None and fast[3] is None
        assert not np.any(general[2])
        assert np.array_equal(general[3], np.arange(n))
        for name, got, want in zip(("grad", "suffix", "rhs", "diag", "off"),
                                   fast[:2] + fast[4:], general[:2] + general[4:]):
            assert np.array_equal(got, want), name

    def test_zero_pivot_is_numerical_error(self, monkeypatch):
        # a zero first column makes the group system singular
        def singular(*args):
            *head, rhs, diag, off = _newton_system(*args)
            diag[0] = off[0] = 0.0
            return (*head, rhs, diag, off)

        monkeypatch.setattr(mle, "_newton_system", singular)
        ctx = small_context(seed=5)
        with pytest.raises(NumericalError, match="singular"):
            projected_newton(ctx, feasible_theta(ctx, np.random.default_rng(0)))


class TestEnvelopeOracle:
    # self-check of the grid-search machinery used by the acceptance gate
    def test_envelope_matches_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            slopes = -rng.uniform(0.0, 1.0, 50)
            intercepts = rng.normal(0.0, 3.0, 50)
            queries = rng.uniform(0.0, 10.0, 200)
            fast = envelope_max(slopes, intercepts, queries)
            brute = np.max(slopes[:, None] * queries[None, :]
                           + intercepts[:, None], axis=0)
            assert np.allclose(fast, brute, atol=1e-12)


class TestReconstruct:
    def test_reconstructed_cdf_values(self):
        theta = ThetaVector(np.array([0.8, 0.5, 0.25]))
        z = np.array([1.0, 2.0, 3.0])
        curve = reconstruct_cdf(theta, z)
        assert curve(0.0) == 0.0
        assert np.array_equal(curve(z), 1.0 - np.cumprod(theta.theta))
        assert curve(3.0) == pytest.approx(1.0 - 0.8 * 0.5 * 0.25)
        assert curve(1.5) == pytest.approx(0.5 * (0.2 + 0.6))
