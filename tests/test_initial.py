"""Low-reserve selection, the two partial CDF estimators, the selling
price CDF map on the probability scale, and the splice combining them."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (AuctionRecord, MonotoneCurve, NumericalError,
                         ObservedDataset, SpliceAnchors, ValidationError,
                         combine_initial, compute_splice_anchors,
                         estimate_f_fp, estimate_f_sp, g_lambda_cdf,
                         g_lambda_inverse, initial_theta, select_low_reserve,
                         theta_to_cdf)


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

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0, 100.0])
    def test_inverse_round_trip(self, s):
        for y in (0.05, 0.3, 0.6, 0.95):
            eta = g_lambda_inverse(y, s, 1.0)
            assert g_lambda_cdf(eta, s, 1.0) == pytest.approx(y, abs=1e-9)

    @pytest.mark.parametrize("s", [0.05, 3.5, 100.0, 700.0])
    def test_inverse_over_an_array_matches_scalar_calls(self, s):
        levels = np.concatenate(([-0.5, 0.0], np.arange(1, 201) / 200, [1.5]))
        together = g_lambda_inverse(levels, s, 1.0)
        one_by_one = np.array([g_lambda_inverse(float(y), s, 1.0)
                               for y in levels])
        assert isinstance(together, np.ndarray)
        assert np.max(np.abs(together - one_by_one)) <= 1e-10
        assert together[0] == together[1] == 0.0
        assert together[-2] == together[-1] == 1.0

    def test_inverse_exact_at_bounds(self):
        assert g_lambda_inverse(0.0, 2.0, 1.0) == 0.0
        assert g_lambda_inverse(-0.5, 2.0, 1.0) == 0.0
        assert g_lambda_inverse(1.0, 2.0, 1.0) == 1.0
        assert g_lambda_inverse(1.5, 2.0, 1.0) == 1.0


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

    def test_selling_price_estimator_values(self):
        ds, sel = self.make()
        f_sp = estimate_f_sp(ds, sel, lambda_hat=0.5)
        assert np.array_equal(f_sp.knots, [2.0, 3.0])
        assert f_sp.values[0] == pytest.approx(
            g_lambda_inverse(0.5, 0.5, ds.tau))
        assert f_sp.values[1] == 1.0

    def test_no_sold_auction_raises(self):
        ds = reserves_dataset([0.0, 0.01])
        sel = select_low_reserve(ds, q=0.5, epsilon=0.1)
        with pytest.raises(NumericalError):
            estimate_f_fp(ds, sel)
        with pytest.raises(NumericalError):
            estimate_f_sp(ds, sel, 1.0)


class TestSplice:
    def test_anchor_geometry(self):
        f_sp = MonotoneCurve([10.0, 12.0, 15.0], [0.3, 0.6, 1.0], kind="step")
        f_fp = MonotoneCurve([2.0, 5.0, 9.0, 11.0], [0.2, 0.5, 0.9, 1.0],
                             kind="step")
        anchors = compute_splice_anchors(f_fp, f_sp)
        assert anchors.p1 == 15.0
        assert anchors.p2 == 10.0
        assert anchors.c == 9.0
        assert anchors.bridge_value == 1.0

    def test_anchor_respects_bridge_target(self):
        # the first-price estimate overshoots the target above x=2, so
        # the splice point must retreat to 2
        f_sp = MonotoneCurve([10.0, 12.0, 15.0], [0.3, 0.6, 0.8], kind="step")
        f_fp = MonotoneCurve([2.0, 5.0, 9.0], [0.5, 0.85, 0.95], kind="step")
        anchors = compute_splice_anchors(f_fp, f_sp)
        assert anchors.c == 2.0
        assert anchors.bridge_value == pytest.approx(0.8)

    def test_anchor_falls_back_to_zero(self):
        f_sp = MonotoneCurve([10.0], [0.2], kind="step")
        f_fp = MonotoneCurve([3.0], [0.5], kind="step")
        anchors = compute_splice_anchors(f_fp, f_sp)
        assert anchors.c == 0.0

    def test_invalid_anchors_rejected(self):
        with pytest.raises(ValidationError):
            SpliceAnchors(p1=5.0, p2=4.0, c=4.5, bridge_value=1.0)
        with pytest.raises(ValidationError):
            SpliceAnchors(p1=5.0, p2=4.0, c=1.0, bridge_value=1.5)

    def test_combined_estimate(self):
        f_sp = MonotoneCurve([10.0, 12.0, 15.0], [0.3, 0.6, 1.0], kind="step")
        f_fp = MonotoneCurve([2.0, 5.0, 9.0, 11.0], [0.2, 0.5, 0.9, 1.0],
                             kind="step")
        anchors = compute_splice_anchors(f_fp, f_sp)
        step, pl = combine_initial(f_fp, f_sp, anchors)
        # below the splice point: the first-price estimate
        for x in (2.0, 5.0, 9.0):
            assert step(x) == f_fp(x)
        # at p1 the bridge reaches the target level
        assert step(anchors.p1) == pytest.approx(anchors.bridge_value)
        assert np.all(np.diff(step.values) >= 0.0)
        assert pl.kind == "pl"
        assert pl(0.0) == 0.0
        # the interpolation passes through the step values
        assert pl(9.0) == pytest.approx(0.9)


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
