"""Arrival-rate estimation: the closed-form moment function against a
Poisson-series oracle, its inverse, and the jump-count conditional
mean."""

import math

import mpmath
import numpy as np
import pytest

from scipy import optimize, special

from secondprice import (AuctionRecord, NumericalError, ObservedDataset,
                         ValidationError, arrival, conditional_mean_jumps,
                         estimate_lambda, g_eval, g_inverse)
from secondprice.simulate import replay_streams


def series_mean_jumps(x: float, n_max: int = 200) -> float:
    """Independent oracle: E[2(H_N - 1); N >= 2] for N ~ Poisson(x),
    via direct truncated-series evaluation."""
    total = 0.0
    log_pmf = -x
    for n in range(1, n_max + 1):
        log_pmf += math.log(x) - math.log(n)
        if n >= 2:
            h = sum(1.0 / i for i in range(2, n + 1))
            total += math.exp(log_pmf) * 2.0 * h
    return total


class TestConditionalMeanJumps:
    def test_small_counts(self):
        assert conditional_mean_jumps(0) == 0.0
        assert conditional_mean_jumps(1) == 0.0
        assert conditional_mean_jumps(2) == pytest.approx(1.0)
        assert conditional_mean_jumps(3) == pytest.approx(5.0 / 3.0)
        assert conditional_mean_jumps(5) == pytest.approx(
            2.0 * (1 / 2 + 1 / 3 + 1 / 4 + 1 / 5))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            conditional_mean_jumps(-1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_jump_count_simulation(self, n):
        # replay n bidders with iid continuous valuations in random
        # arrival order and count standing-price changes
        rng = np.random.default_rng(1000 + n)
        reps = 20000
        times = np.arange(1.0, n + 1.0)
        # one row of draws per rep, as rng.random(n) would give in turn
        bids = rng.random((reps, n))
        counts = replay_streams(((0.0, times, b) for b in bids),
                                float(n + 1)).m.astype(float)
        se = counts.std(ddof=1) / math.sqrt(reps)
        # n=2 always produces exactly one change, so allow zero spread
        assert abs(counts.mean() - conditional_mean_jumps(n)) <= 3.0 * se + 1e-12


class TestMomentFunction:
    def test_matches_series_oracle(self):
        # both sides of the switch from the Poisson series to the closed
        # form at x = 1, and of an earlier switch at x = 1e-2
        for x in (1e-4, 9.9e-3, 1.01e-2, 0.5, 0.99, 1.01, 5.0, 20.0, 100.0):
            assert g_eval(x) == pytest.approx(series_mean_jumps(x), rel=1e-10)

    def test_matches_high_precision_reference(self):
        # 2(gamma + ln x + E1(x) - 1 + e^{-x}) to 40 digits; the closed
        # form in doubles cancels to about 1e-11 relative at x = 1e-2
        def exact(x):
            with mpmath.workdps(40):
                x = mpmath.mpf(x)
                return float(2 * (mpmath.euler + mpmath.log(x) + mpmath.e1(x)
                                  - 1 + mpmath.exp(-x)))

        xs = np.geomspace(1e-4, 1e3, 201)
        ref = np.array([exact(x) for x in xs])
        np.testing.assert_allclose([g_eval(x) for x in xs], ref, rtol=4e-15,
                                   atol=0)

    def test_pins_zero_and_is_monotone(self):
        assert g_eval(0.0) == 0.0
        for centre in (0.01, 1.0):
            seam = [g_eval(x)
                    for x in np.linspace(0.98 * centre, 1.02 * centre, 401)]
            assert np.all(np.diff(seam) > 0.0)
        wide = [g_eval(x) for x in np.geomspace(1e-6, 1e6, 2001)]
        assert np.all(np.diff(wide) > 0.0)

    def test_inverse_round_trip(self):
        assert g_inverse(0.0) == 0.0
        for y in (1e-8, 1e-3, 0.5, 1.0, 2.0, 8.0, 20.0):
            assert g_eval(g_inverse(y)) == pytest.approx(y, rel=1e-12)

    def test_inverse_is_the_smallest_float_reaching_y(self):
        # a log grid, the rationals j/|V| a mean jump count takes on either
        # side of g(1) (the series seam), and y down to the subnormals
        g1 = g_eval(1.0)
        sizes = np.array([7, 100, 959, 2475])
        seam = np.concatenate([np.floor(g1 * sizes) / sizes, np.ceil(g1 * sizes) / sizes])
        for y in [*np.geomspace(1e-6, 40.0, 61), *seam, 5e-324, 1e-323, 1e-300, 1e-290]:
            x = g_inverse(y)
            assert g_eval(x) >= y > g_eval(np.nextafter(x, 0.0))

    def test_inverse_matches_brent(self):
        # the doubling bracket solved by Brent's method, relative
        # tolerance only; where g ~ 2 ln x the inversion amplifies g's
        # rounding by y/2, so the ulp allowance grows with it there
        for y in np.geomspace(1e-6, 40.0, 301):
            lo, hi = 0.0, 1.0
            while g_eval(hi) < y:
                lo, hi = hi, 2.0 * hi
            ref = optimize.brentq(lambda v: g_eval(v) - y, lo, hi, xtol=1e-300)
            ulps = abs(g_inverse(y) - ref) / np.spacing(ref)
            assert ulps <= 8.0 * max(1.0, y / 2.0), y

    def test_inverse_beyond_initial_bracket(self):
        # the bracket starts at x = 1 and doubles about 20 times here
        assert g_inverse(g_eval(1e6)) == pytest.approx(1e6, rel=1e-12)

    def test_inverse_rejects_negative(self):
        with pytest.raises(ValidationError):
            g_inverse(-0.1)
        with pytest.raises(ValidationError):
            g_eval(-0.1)

    def test_nan_mean_rejected(self):
        with pytest.raises(ValidationError):
            g_eval(float("nan"))

    def test_unreachable_mean_rejected(self):
        with pytest.raises(NumericalError):
            g_inverse(1e4)


class TestExponentialIntegral:
    """E1 in g's closed form is E1XB's continued fraction, the branch
    scipy.special.exp1 takes above 1; scipy stays the oracle here."""

    def test_matches_scipy_bit_for_bit_above_one(self):
        rng = np.random.default_rng(25)
        xs = np.concatenate([
            np.geomspace(np.nextafter(1.0, 2.0), 2.0 ** 32, 50_000),
            rng.uniform(np.nextafter(1.0, 2.0), 200.0, 50_000),
            np.linspace(744.0, 800.0, 2_001),   # e^{-x} underflows to 0 here
            [np.inf]])
        got = np.array([arrival._e1(x) for x in xs.tolist()])
        assert np.array_equal(got, special.exp1(xs))

    def test_inverse_matches_g_on_scipy_exp1(self, monkeypatch):
        # scipy sums E1's series at x = 1 exactly, where g moves by about
        # 4e-16; the doubling bracket compares g(1) with y, so test the
        # rationals j/|V| on either side of g(1) besides a log grid
        g1 = g_eval(1.0)
        sizes = np.arange(1, 2476)
        ys = np.unique(np.concatenate([
            np.floor(g1 * sizes) / sizes, np.ceil(g1 * sizes) / sizes,
            np.geomspace(1e-8, 40.0, 1_000)]))
        got = [g_inverse(y) for y in ys.tolist()]
        monkeypatch.setattr(arrival, "_e1", lambda x: float(special.exp1(x)))
        assert got == [g_inverse(y) for y in ys.tolist()]


class TestEstimateLambda:
    def test_recovers_rate_from_known_mean(self):
        # two auctions with jump counts 2 and 4: mean 3; invert g at 3
        a1 = AuctionRecord(0.0, 10.0, ((1.0, 1.0), (2.0, 1.0)), True)
        a2 = AuctionRecord(0.1, 10.0, ((1.5, 1.0), (2.5, 1.0), (3.5, 1.0),
                                       (4.5, 1.0)), True)
        ds = ObservedDataset((a1, a2), 10.0)
        lam = estimate_lambda(ds, {0, 1})
        assert lam == pytest.approx(g_inverse(3.0) / 10.0)

    def test_matches_oracle_inversion(self):
        a1 = AuctionRecord(0.0, 10.0, ((1.0, 1.0), (2.0, 1.0)), True)
        a2 = AuctionRecord(0.1, 10.0, ((1.5, 1.0), (2.5, 1.0), (3.5, 1.0),
                                       (4.5, 1.0)), True)
        ds = ObservedDataset((a1, a2), 10.0)
        x = optimize.brentq(lambda v: series_mean_jumps(v) - 3.0, 1.0, 50.0,
                            xtol=1e-14, rtol=1e-15)
        assert estimate_lambda(ds, {0, 1}) == pytest.approx(x / 10.0, rel=1e-9)

    def test_empty_selection_rejected(self):
        a = AuctionRecord(0.0, 10.0, (), False)
        with pytest.raises(NumericalError):
            estimate_lambda(ObservedDataset((a,), 10.0), set())
