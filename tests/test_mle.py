"""Profile log-likelihood, closed-form coordinate updates, and the
coordinate-ascent driver, checked against direct-definition oracles."""

import csv
import math

import numpy as np
import pytest
from helpers import (envelope_max, naive_curvature_weight, naive_loglik)
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (AuctionRecord, LikelihoodContext, NumericalError,
                         ObservedDataset, SimConfig, ThetaVector,
                         ValidationError, ValuationDistribution, compute_A,
                         coord_update, coordinate_ascent, log_lik, pool,
                         reconstruct_cdf, run_study, theta_to_cdf)
from secondprice.mle import _case1_root


def small_context(seed=5, K=6, lam_hat=1.2):
    dataset = run_study(SimConfig(lam=0.8, tau=10.0, K=K, seed=seed,
                                  reserve_policy=0.2),
                        ValuationDistribution.uniform(0.5, 3.0))
    return LikelihoodContext(pool(dataset), lam_hat)


def feasible_theta(ctx, rng):
    return ThetaVector(rng.uniform(0.05, 0.95, ctx.n))


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


class TestCurvatureWeight:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        ctx = small_context(seed=2, K=8)
        theta = feasible_theta(ctx, rng)
        for i in range(1, ctx.n + 1):
            ours = compute_A(theta, i, ctx)
            ref = naive_curvature_weight(theta.theta, i, ctx.pooled,
                                         ctx.lambda_hat)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_all_ones_gives_suffix_time_sum(self):
        ctx = small_context(seed=3)
        theta = ThetaVector(np.ones(ctx.n))
        for i in (1, ctx.n // 2, ctx.n):
            expected = ctx.lambda_hat * float(np.sum(ctx.pooled.ttilde[i - 1:]))
            assert compute_A(theta, i, ctx) == pytest.approx(expected)

    def test_index_out_of_range(self):
        ctx = small_context()
        with pytest.raises(ValidationError):
            compute_A(ThetaVector(np.ones(ctx.n)), 0, ctx)


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
        theta = ThetaVector(np.full(ctx.n, 0.5))
        for i in range(1, ctx.n + 1):
            new = coord_update(i, theta, ctx)
            A = compute_A(theta, i, ctx)
            b = float(ctx.coef[i - 1])
            if ctx.is_jump[i - 1]:
                assert new == pytest.approx(_case1_root(A, b))
            elif b <= 0.0:
                assert new == 0.0
            else:
                assert new == (1.0 if A <= b else pytest.approx(b / A))


class TestCoordinateAscent:
    def test_history_is_monotone_and_converges(self):
        ctx = small_context(seed=6, K=10)
        theta0 = feasible_theta(ctx, np.random.default_rng(2))
        res = coordinate_ascent(ctx, theta0, tol=1e-10)
        assert res.converged
        hist = np.asarray(res.history)
        assert np.all(np.diff(hist) >= -1e-9 * (1.0 + np.abs(hist[:-1])))
        assert res.loglik >= log_lik(theta0, ctx)

    def test_fast_and_slow_paths_agree(self):
        ctx = small_context(seed=7, K=10)
        theta0 = feasible_theta(ctx, np.random.default_rng(3))
        fast = coordinate_ascent(ctx, theta0, tol=1e-10, fast=True)
        slow = coordinate_ascent(ctx, theta0, tol=1e-10, fast=False)
        assert fast.loglik == pytest.approx(slow.loglik, rel=1e-9, abs=1e-9)
        assert np.allclose(fast.theta.theta, slow.theta.theta, atol=1e-6)

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
        monkeypatch.setattr("secondprice.mle.coord_update",
                            lambda i, theta, ctx: 1e-300)
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

    def test_trace_csv(self, tmp_path):
        ctx = small_context(seed=11)
        theta0 = feasible_theta(ctx, np.random.default_rng(6))
        path = tmp_path / "trace.csv"
        res = coordinate_ascent(ctx, theta0, log_path=path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sweep", "loglik"]
        assert len(rows) - 1 == len(res.history)
        assert float(rows[-1][1]) == res.loglik

    def test_invalid_arguments(self):
        ctx = small_context(seed=12)
        ok = ThetaVector(np.full(ctx.n, 0.5))
        with pytest.raises(ValidationError):
            coordinate_ascent(ctx, ok, tol=0.0)
        with pytest.raises(ValidationError):
            coordinate_ascent(ctx, ThetaVector(np.full(ctx.n + 1, 0.5)))


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
        assert curve.kind == "pl"
        assert curve(0.0) == 0.0
        step = theta_to_cdf(theta, z)
        assert np.allclose(curve(z), step.values)
        assert curve(3.0) == pytest.approx(1.0 - 0.8 * 0.5 * 0.25)
