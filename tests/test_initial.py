"""Low-reserve selection, the selling-price CDF map on the probability
scale, the first-price estimator, the splice that bridges it to 1 at
the largest final selling price, and the whole initial estimate against
a record-by-record reference."""

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
                         run_study, select_low_reserve, theta_to_cdf)
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
        assert sel.V == frozenset({0, 1})

    def test_picks_the_smallest_feasible_window(self):
        ds = reserves_dataset([0.5, 0.6, 5.0, 5.1, 5.2])
        sel = select_low_reserve(ds, q=0.4, epsilon=0.2)
        assert sel.V == frozenset({0, 1})
        assert sel.r_min <= 0.6

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
        assert sel.V == frozenset({0, 1, 2})
        return ds, sel

    def test_first_price_estimator_values(self):
        ds, sel = self.make()
        f_fp = estimate_f_fp(ds, sel)
        # first jump prices of the qualifying sold auctions: 1.0 and 1.5
        assert np.array_equal(f_fp.knots, [1.0, 1.5])
        assert np.allclose(f_fp.values, [1.0 - np.sqrt(0.5), 1.0])

    def test_no_sold_auction_raises(self):
        ds = reserves_dataset([0.0, 0.01])
        sel = select_low_reserve(ds, q=0.5, epsilon=0.1)
        with pytest.raises(NumericalError):
            estimate_f_fp(ds, sel)
        f_fp = MonotoneCurve([1.0], [1.0], kind="step")
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
        assert sel.V == frozenset({0, 1, 2, 3})
        f_fp = MonotoneCurve([2.0, 5.0, 9.0, 11.0], [0.2, 0.5, 0.9, 1.0],
                             kind="step")
        return ds, sel, f_fp

    def test_anchor_geometry(self):
        ds, sel, f_fp = self.make()
        anchors = compute_splice_anchors(ds, sel, f_fp)
        assert anchors.p1 == 15.0
        assert anchors.p2 == 10.0
        assert anchors.c == 9.0
        assert anchors.bridge_value == 1.0

    def test_anchor_falls_back_to_zero(self):
        # no first-price knot at or below the smallest final price
        ds, sel, _ = self.make()
        f_fp = MonotoneCurve([11.0], [1.0], kind="step")
        anchors = compute_splice_anchors(ds, sel, f_fp)
        assert anchors.c == 0.0

    def test_invalid_anchors_rejected(self):
        with pytest.raises(ValidationError):
            SpliceAnchors(p1=5.0, p2=4.0, c=4.5, bridge_value=1.0)
        with pytest.raises(ValidationError):
            SpliceAnchors(p1=5.0, p2=4.0, c=1.0, bridge_value=1.5)

    def test_combined_estimate(self):
        ds, sel, f_fp = self.make()
        anchors = compute_splice_anchors(ds, sel, f_fp)
        pl = combine_initial(f_fp, anchors)
        assert pl.kind == "pl"
        assert np.array_equal(pl.knots, [0.0, 2.0, 5.0, 9.0, 15.0])
        assert pl(0.0) == 0.0
        # up to the splice point: the first-price estimate at its knots
        for x in (2.0, 5.0, 9.0):
            assert pl(x) == f_fp(x)
        # the bridge reaches the target level at p1
        assert pl(anchors.p1) == pytest.approx(anchors.bridge_value)
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
        assert sel.V == frozenset({0, 1})
        assert anchors == SpliceAnchors(p1=x, p2=x, c=x, bridge_value=1.0)
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
        assert (anchors.p1, anchors.p2, anchors.c,
                anchors.bridge_value) == ref_anchors
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
        curve = MonotoneCurve(knots, values, kind="pl")
        theta = initial_theta(curve, knots)
        back = theta_to_cdf(theta, knots)
        assert np.allclose(back.values, values, atol=1e-10)
