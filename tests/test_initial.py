"""Low-reserve selection, the selling-price CDF map on the probability
scale, the first-price estimator, the splice that bridges it to 1 at
the largest final selling price, and the whole initial estimate against
a record-by-record reference."""

import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_initial_estimate
from secondprice import (AuctionRecord, MonotoneCurve, NumericalError,
                         ObservedDataset, SimConfig, SpliceAnchors,
                         ValidationError, ValuationDistribution,
                         combine_initial, compute_splice_anchors,
                         estimate_f_fp, fit, g_lambda_cdf, initial_theta,
                         run_study, select_low_reserve)
from secondprice import initial, pipeline
from secondprice.pipeline import fit_initial


def oracle_price_cdf(eta: float, s: float, n_max: int = 400) -> float:
    """High-precision oracle: the final selling price on the probability
    scale is the second largest of N iid Uniform(0,1) values, N truncated
    Poisson(s) on {2, 3, ...}."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        eta = mpmath.mpf(eta)
        num = mpmath.mpf(0)
        for n in range(2, n_max + 1):
            pmf = mpmath.e ** (-s) * s ** n / mpmath.factorial(n)
            num += pmf * (eta ** n + n * eta ** (n - 1) * (1 - eta))
        den = 1 - mpmath.e ** (-s) - s * mpmath.e ** (-s)
        return float(num / den)


class TestPriceCdfMap:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 10.0, 200.0])
    def test_endpoints_exact(self, s):
        assert g_lambda_cdf(0.0, s, 1.0) == 0.0
        assert g_lambda_cdf(1.0, s, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0, 50.0])
    def test_matches_truncated_mixture_oracle(self, s):
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert g_lambda_cdf(eta, s, 1.0) == pytest.approx(
                oracle_price_cdf(eta, s), abs=1e-10)

    @pytest.mark.parametrize("s", [0.5, 1.0, 10.0, 100.0])
    def test_strictly_increasing(self, s):
        grid = np.linspace(0.0, 1.0, 101)
        vals = np.array([g_lambda_cdf(e, s, 1.0) for e in grid])
        assert np.all(np.diff(vals) > 0.0)

    def test_splits_rate_and_window(self):
        assert g_lambda_cdf(0.4, 2.0, 3.0) == pytest.approx(
            g_lambda_cdf(0.4, 6.0, 1.0))

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValidationError):
            g_lambda_cdf(0.5, 0.0, 1.0)


def reserves_dataset(reserves, jumps_per_auction=None, tau=10.0):
    auctions = []
    for k, r in enumerate(reserves):
        jumps = ()
        if jumps_per_auction and jumps_per_auction[k]:
            jumps = tuple(jumps_per_auction[k])
        auctions.append(AuctionRecord(r, tau, jumps, bool(jumps)))
    return ObservedDataset(tuple(auctions), tau)


class TestSelectLowReserve:
    def test_two_zeros_and_an_outlier(self):
        ds = reserves_dataset([0.0, 0.01, 100.0])
        sel = select_low_reserve(ds, q=0.5, epsilon=1.0)
        assert sel.r_min == 0.0
        assert np.array_equal(sel.V, [0, 1])

    def test_picks_the_smallest_feasible_window(self):
        ds = reserves_dataset([0.5, 0.6, 5.0, 5.1, 5.2])
        sel = select_low_reserve(ds, q=0.4, epsilon=0.2)
        assert np.array_equal(sel.V, [0, 1])
        assert sel.r_min <= 0.6

    def test_selection_is_a_sorted_read_only_index_array(self):
        ds = reserves_dataset([5.0, 0.0, 100.0, 0.01])
        sel = select_low_reserve(ds, q=0.5, epsilon=1.0)
        assert isinstance(sel.V, np.ndarray) and sel.V.dtype == np.intp
        assert np.array_equal(sel.V, [1, 3]) and not sel.V.flags.writeable

    def test_no_window_raises(self):
        ds = reserves_dataset([0.0, 10.0, 20.0, 30.0])
        with pytest.raises(NumericalError):
            select_low_reserve(ds, q=0.75, epsilon=0.01)

    def test_invalid_parameters_rejected(self):
        ds = reserves_dataset([0.0, 0.1])
        with pytest.raises(ValidationError):
            select_low_reserve(ds, q=0.0, epsilon=1.0)
        with pytest.raises(ValidationError):
            select_low_reserve(ds, q=0.5, epsilon=0.0)

    def test_infinite_window_rejected(self):
        # an infinite window would put every auction in the low-reserve set
        ds = reserves_dataset([0.0, 0.1, 5.0])
        with pytest.raises(ValidationError, match="finite epsilon"):
            select_low_reserve(ds, q=0.5, epsilon=math.inf)

    @pytest.mark.parametrize("dist, K, salt", [
        (ValuationDistribution.uniform(1.0, 20.0), 100, (7, 0)),     # criterion 3
        (ValuationDistribution.gamma(10.0, 2.0), 1000, (7, 0)),      # criterion 3
        (ValuationDistribution.uniform(1.0, 20.0), 1000, (11,)),     # criterion 4
        (ValuationDistribution.gamma(10.0, 2.0), 150, (23,)),        # criterion 8
        (ValuationDistribution.uniform(1.0, 20.0), 1000, (37,)),     # criterion 9
    ], ids=["3-uniform", "3-gamma", "4", "8", "9"])
    def test_acceptance_settings_select_at_zero(self, dist, K, salt):
        # the acceptance studies draw every reserve at 0, so lambda_hat and
        # F_hat there estimate lambda and F, not their laws above r_min > 0
        for rep in range(3):
            seed = int(np.random.SeedSequence((*salt, rep)).generate_state(1)[0])
            ds = run_study(SimConfig(lam=1.0, tau=100.0, K=K, seed=seed), dist)
            assert fit_initial(ds)[1].r_min == 0.0

    def test_reserves_away_from_zero_are_logged(self, uniform_dataset, caplog):
        # with every reserve at 3, lambda_hat and F_hat estimate the laws of
        # the bidders above r_min, and the fit says so once
        ds = run_study(SimConfig(lam=1.0, tau=10.0, K=1000, seed=3, reserve_policy=3.0),
                       ValuationDistribution.gamma(10.0, 2.0))
        with caplog.at_level(logging.INFO, logger="secondprice"):
            _, sel, _, _ = fit_initial(ds)
        [record] = caplog.records
        assert record.name == "secondprice.pipeline"
        assert record.levelno == logging.INFO
        assert sel.r_min >= sel.epsilon
        assert f"r_min {sel.r_min:.6g} >= epsilon {sel.epsilon:.6g}" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="secondprice"):
            fit_initial(uniform_dataset)
        assert not caplog.records


class TestPartialEstimators:
    def make(self):
        ds = reserves_dataset(
            [0.0, 0.01, 0.02, 5.0],
            jumps_per_auction=[
                [(1.0, 1.0), (2.0, 1.0)],
                [(1.5, 1.0), (3.0, 1.0)],
                None,
                [(6.0, 1.0)],
            ])
        sel = select_low_reserve(ds, q=0.5, epsilon=0.1)
        assert np.array_equal(sel.V, [0, 1, 2])
        return ds, sel

    def test_first_price_estimator_values(self):
        ds, sel = self.make()
        f_fp = estimate_f_fp(ds, sel)
        # first jump prices of the qualifying sold auctions: 1.0 and 1.5,
        # joined linearly and anchored at (0, 0)
        assert np.array_equal(f_fp.knots, [0.0, 1.0, 1.5])
        assert np.array_equal(f_fp.values, [0.0, 1.0 - math.sqrt(0.5), 1.0])
        assert f_fp(1.25) == pytest.approx(0.5 * (f_fp(1.0) + 1.0))

    def test_first_price_estimator_matches_direct_computation(self, uniform_dataset):
        _, sel, _, _ = fit_initial(uniform_dataset)
        records = uniform_dataset.auctions
        first = sorted(records[k].prices[0] for k in sel.V if records[k].m)
        n = len(first)
        f_fp = estimate_f_fp(uniform_dataset, sel)
        assert f_fp(0.0) == 0.0
        assert np.array_equal(f_fp.knots, [0.0, *first])
        assert np.array_equal(f_fp(np.array(first)),
                              [1.0 - math.sqrt(1.0 - i / n) for i in range(1, n + 1)])

    def test_no_sold_auction_raises(self):
        ds = reserves_dataset([0.0, 0.01])
        sel = select_low_reserve(ds, q=0.5, epsilon=0.1)
        with pytest.raises(NumericalError):
            estimate_f_fp(ds, sel)
        f_fp = MonotoneCurve([1.0], [1.0])
        with pytest.raises(NumericalError):
            compute_splice_anchors(ds, sel, f_fp)


class TestSplice:
    def make(self):
        # qualifying sold auctions end at 10, 12 and 15; the one at
        # reserve 5 lies outside the low-reserve window
        ds = reserves_dataset(
            [0.0, 0.01, 0.02, 0.03, 5.0],
            jumps_per_auction=[
                [(3.0, 1.0), (12.0, 1.0)],
                [(4.0, 1.0), (10.0, 1.0)],
                [(6.0, 1.0), (15.0, 1.0)],
                None,
                [(8.0, 1.0)],
            ])
        sel = select_low_reserve(ds, q=0.5, epsilon=0.1)
        assert np.array_equal(sel.V, [0, 1, 2, 3])
        f_fp = MonotoneCurve.from_zero([2.0, 5.0, 9.0, 11.0], [0.2, 0.5, 0.9, 1.0])
        return ds, sel, f_fp

    def test_anchor_geometry(self):
        ds, sel, f_fp = self.make()
        anchors = compute_splice_anchors(ds, sel, f_fp)
        assert anchors.p1 == 15.0
        assert anchors.p2 == 10.0
        assert anchors.c == 9.0

    def test_anchor_falls_back_to_zero(self):
        # no first-price knot at or below the smallest final price
        ds, sel, _ = self.make()
        f_fp = MonotoneCurve([11.0], [1.0])
        anchors = compute_splice_anchors(ds, sel, f_fp)
        assert anchors.c == 0.0

    def test_invalid_anchors_rejected(self):
        SpliceAnchors(p1=5.0, p2=4.0, c=4.0)
        with pytest.raises(ValidationError, match="splice point"):
            SpliceAnchors(p1=5.0, p2=4.0, c=4.5)
        with pytest.raises(ValidationError, match="p2"):
            SpliceAnchors(p1=4.0, p2=5.0, c=3.0)

    def test_combined_estimate(self):
        ds, sel, f_fp = self.make()
        anchors = compute_splice_anchors(ds, sel, f_fp)
        pl = combine_initial(f_fp, anchors)
        assert np.array_equal(pl.knots, [0.0, 2.0, 5.0, 9.0, 15.0])
        assert pl(0.0) == 0.0
        # up to the splice point: the first-price estimate at its knots
        for x in (2.0, 5.0, 9.0):
            assert pl(x) == f_fp(x)
        # the bridge reaches 1 at p1
        assert pl(anchors.p1) == pytest.approx(1.0)
        assert pl(12.0) == pytest.approx(0.9 + 0.1 * 3.0 / 6.0)
        assert np.all(np.diff(pl.values) >= 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_jump_collapses_the_splice(self):
        # the only qualifying sold auction jumps once, at x: its first and
        # final price coincide, so p1 == p2 == c == x and the bridge has
        # zero width
        x = 4.0
        ds = reserves_dataset([0.0, 0.01, 5.0],
                              jumps_per_auction=[[(x, 1.0)], None, [(9.0, 1.0)]])
        _, sel, anchors, f_init = fit_initial(ds, q=0.5, epsilon=0.1)
        assert np.array_equal(sel.V, [0, 1])
        assert anchors == SpliceAnchors(p1=x, p2=x, c=x)
        assert np.array_equal(f_init.knots, [0.0, x])
        assert np.array_equal(f_init.values, [0.0, 1.0])


class TestInitialEstimate:
    @pytest.mark.parametrize("tau", [100.0, 3.5])
    @pytest.mark.parametrize("dist", [ValuationDistribution.uniform(1.0, 20.0),
                                      ValuationDistribution.gamma(10.0, 2.0)],
                             ids=["uniform", "gamma"])
    def test_matches_record_reference(self, dist, tau):
        ds = run_study(SimConfig(lam=1.0, tau=tau, K=200, seed=17), dist)
        _, sel, anchors, f_init = fit_initial(ds)
        ref_anchors, ref_knots, ref_values = naive_initial_estimate(ds, sel)
        assert (anchors.p1, anchors.p2, anchors.c) == ref_anchors
        assert np.array_equal(f_init.knots, ref_knots)
        assert np.array_equal(f_init.values, ref_values)

    def test_does_not_depend_on_the_rate_estimate(self, uniform_dataset,
                                                  monkeypatch):
        lam, _, anchors, f_init = fit_initial(uniform_dataset)
        rate = pipeline.estimate_lambda
        monkeypatch.setattr(pipeline, "estimate_lambda",
                            lambda *args: 2.0 * rate(*args))
        lam2, _, anchors2, f_init2 = fit_initial(uniform_dataset)
        assert lam2 == 2.0 * lam
        assert anchors2 == anchors
        assert np.array_equal(f_init2.knots, f_init.knots)
        assert np.array_equal(f_init2.values, f_init.values)

    @pytest.mark.parametrize("K", [1, 2, 5, 6, 101])
    def test_default_window_is_one_percent_of_the_median_price(self, K):
        ds = run_study(SimConfig(lam=1.0, tau=10.0, K=K, seed=K),
                       ValuationDistribution.gamma(10.0, 2.0))
        want = max(0.01, 0.01 * float(np.median(ds.final_price)))
        assert pipeline.default_epsilon(ds) == want
        assert pipeline.default_epsilon(reserves_dataset([0.0, 0.001])) == 0.01

    def test_zero_rate_estimate_is_numerical_error(self):
        # the low-reserve auctions (reserves 0 and 0.001) never jump
        ds = reserves_dataset([0.0, 0.001, 5.0, 5.5],
                              [None, None, [(6.0, 1.0)], [(7.0, 2.0)]])
        with pytest.raises(NumericalError, match="arrival-rate estimate is zero"):
            fit_initial(ds)

    def test_infinite_rate_estimate_is_numerical_error(self, uniform_dataset):
        # below tau ~ 1e-308 the rate estimate g^-1(mean jumps) / tau overflows
        ds = uniform_dataset
        tiny = ObservedDataset.from_arrays(ds.reserve, ds.sold, ds.m, ds.price,
                                           ds.wait * 1e-310, ds.tau * 1e-310)
        with pytest.raises(NumericalError, match="arrival-rate estimate is inf"):
            fit_initial(tiny)

    def test_fit_never_evaluates_the_selling_price_map(self, uniform_dataset,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("g_lambda_cdf called")
        monkeypatch.setattr(initial, "g_lambda_cdf", refuse)
        fit(uniform_dataset)


class TestInitialTheta:
    @given(st.lists(st.floats(0.0, 0.99), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_theta(self, raw):
        values = np.sort(np.asarray(raw))
        knots = np.arange(1.0, len(values) + 1.0)
        curve = MonotoneCurve(knots, values)
        theta = initial_theta(curve, knots)
        assert np.allclose(1.0 - np.cumprod(theta.theta), values, atol=1e-10)
