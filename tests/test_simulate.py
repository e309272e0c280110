"""Standing-price mechanics, bid replay, and the synthetic study driver."""

import itertools

import numpy as np
import pytest
from helpers import naive_arrival_times, naive_jittered_reserves, naive_replay
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from secondprice import (AuctionRecord, ObservedDataset, SimConfig,
                         ValidationError, ValuationDistribution, has_ties,
                         replay_bids, run_auction, run_study)
from secondprice.simulate import _chunks, replay_streams, simulate_auctions


class TestStandingPriceUpdate:
    def test_bid_at_or_below_standing_is_not_placed(self):
        rec = replay_bids(2.0, 10.0, (1.0, 2.0), (1.5, 2.0))
        assert rec.m == 0 and not rec.sold
        # after the price reaches 5.09, bids of 5.09 and 4.0 change nothing
        base = replay_bids(2.0, 10.0, (1.0, 2.0), (8.05, 5.09))
        more = replay_bids(2.0, 10.0, (1.0, 2.0, 3.0, 4.0),
                           (8.05, 5.09, 5.09, 4.0))
        assert more == base

    def test_first_bid_above_reserve_does_not_move_the_price(self):
        rec = replay_bids(2.0, 10.0, (1.0,), (8.05,))
        assert rec.sold
        assert rec.final_price == 2.0
        assert rec.jumps == ()

    def test_second_bid_sets_price_to_second_highest(self):
        rec = replay_bids(2.0, 10.0, (1.0, 3.0), (8.05, 5.09))
        assert rec.jumps == ((5.09, 3.0),)

    def test_higher_bid_raises_price_to_previous_top(self):
        rec = replay_bids(2.0, 10.0, (1.0, 3.0, 4.5), (8.05, 5.09, 12.82))
        assert rec.jumps == ((5.09, 3.0), (8.05, 1.5))


_FEW_VALUES = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0)


@st.composite
def _streams(draw):
    """(reserve, times, bids) with bids often equal to each other or to
    the reserve; empty streams included."""
    value = st.one_of(st.sampled_from(_FEW_VALUES), st.floats(0.0, 20.0))
    reserve = draw(st.sampled_from(_FEW_VALUES))
    bids = draw(st.lists(value, max_size=15))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=len(bids),
                         max_size=len(bids)))
    return reserve, np.cumsum(gaps), bids


class TestReplay:
    @given(_streams())
    @example((3.0, np.empty(0), []))
    @settings(max_examples=500, deadline=None)
    def test_matches_per_bid_oracle(self, stream):
        reserve, times, bids = stream
        assert replay_bids(reserve, 20.0, times, bids) == \
            naive_replay(reserve, 20.0, times, bids)

    @pytest.mark.parametrize("times, bids", [
        ((1.0, 2.0), (4.0, float("nan"))),
        ((1.0, 2.0), (4.0, float("inf"))),
        ((1.0, float("nan")), (4.0, 5.0)),
        ((1.0,), (4.0, 5.0)),
    ])
    def test_rejects_non_finite_or_ragged_streams(self, times, bids):
        with pytest.raises(ValidationError):
            replay_bids(1.0, 5.0, times, bids)

    def test_four_bid_stream(self):
        times = (0.55, 5.96, 9.65, 24.0)
        bids = (8.05, 5.09, 12.82, 10.14)
        rec = replay_bids(2.0, 30.0, times, bids)
        assert rec.prices == (5.09, 8.05, 10.14)
        assert rec.sold
        assert rec.final_price == 10.14
        # standing-price path including the reserve
        assert (2.0,) + rec.prices == (2.0, 5.09, 8.05, 10.14)
        # jump instants recovered from the waiting times
        expected_waits = (5.96, 9.65 - 5.96, 24.0 - 9.65)
        assert rec.waits == expected_waits
        assert np.allclose(np.cumsum(rec.waits), (5.96, 9.65, 24.0),
                           rtol=0.0, atol=1e-12)

    def test_ignored_bids_do_not_change_the_path(self):
        times = (0.55, 3.0, 5.96, 9.65, 12.0, 24.0)
        bids = (8.05, 1.5, 5.09, 12.82, 6.0, 10.14)
        rec = replay_bids(2.0, 30.0, times, bids)
        assert rec.prices == (5.09, 8.05, 10.14)
        assert np.allclose(np.cumsum(rec.waits), (5.96, 9.65, 24.0),
                           rtol=0.0, atol=1e-12)

    def test_no_bid_above_reserve_means_unsold(self):
        rec = replay_bids(10.0, 5.0, (1.0, 2.0), (3.0, 9.9))
        assert not rec.sold
        assert rec.m == 0
        assert rec.final_price == 10.0

    def test_single_bid_above_reserve_sells_at_reserve(self):
        rec = replay_bids(1.0, 5.0, (1.0,), (4.0,))
        assert rec.sold
        assert rec.m == 0
        assert rec.final_price == 1.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_replay_invariants(self, data):
        reserve = data.draw(st.floats(0.0, 5.0))
        bids = data.draw(st.lists(
            st.floats(0.01, 100.0), min_size=0, max_size=20, unique=True))
        times = np.sort(data.draw(st.lists(
            st.floats(0.001, 9.999), min_size=len(bids), max_size=len(bids),
            unique=True)))
        rec = replay_bids(reserve, 10.0, times, bids)
        above = [b for b in bids if b > reserve]
        assert rec.sold == bool(above)
        assert rec.m <= max(0, len(above) - 1)
        assert all(p > reserve for p in rec.prices)
        assert np.all(np.diff(rec.prices) > 0)
        # the final standing price is the overall second maximum of the
        # reserve and all bids, whether or not every bid was placed
        if above:
            pool = sorted(list(bids) + [reserve])
            assert rec.final_price == pytest.approx(pool[-2])


def _random_streams(rng, lengths, tau):
    """(reserve, times, bids) with bids often equal to each other or to
    the reserve, all placed before ``tau``."""
    streams = []
    for n in lengths:
        values = np.where(rng.random(n) < 0.3, rng.choice(_FEW_VALUES, n),
                          rng.uniform(0.0, 20.0, n))
        times = np.cumsum(rng.uniform(0.01, 1.0, n)) * (0.99 * tau / n if n else 1.0)
        streams.append((float(rng.choice(_FEW_VALUES)), times, values))
    return streams


class TestBatchedReplay:
    """Every row of a batched replay equals the per-bid oracle."""

    @staticmethod
    def assert_rows_match_oracle(streams, tau):
        got = replay_streams(streams, tau)
        records = tuple(naive_replay(r, tau, t, b) for r, t, b in streams)
        assert got == ObservedDataset(records, tau)
        # each auction's waits added left to right, one at a time
        assert got.tail.tolist() == [max(0.0, tau - sum(a.waits)) for a in records]

    def test_empty_streams(self):
        rng = np.random.default_rng(1)
        self.assert_rows_match_oracle(_random_streams(rng, [0, 0, 0], 10.0), 10.0)
        self.assert_rows_match_oracle(_random_streams(rng, [0, 4, 0, 0, 7, 0], 10.0), 10.0)

    def test_rows_of_very_different_lengths(self):
        rng = np.random.default_rng(2)
        lengths = [0, 1, 900, 2, 57, 0, 3, 1, 250]
        streams = _random_streams(rng, lengths, 50.0)
        assert len(list(_chunks(streams))) == 1
        self.assert_rows_match_oracle(streams, 50.0)

    def test_batch_spanning_several_chunks(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 900, 400)
        lengths[7] = 0
        streams = _random_streams(rng, lengths, 50.0)
        assert len(list(_chunks(streams))) > 1
        self.assert_rows_match_oracle(streams, 50.0)

    @pytest.mark.parametrize("lam, tau", [(1.0, 0.05), (10.0, 100.0)])
    def test_study_equals_single_auction_runs(self, lam, tau):
        # lambda * tau = 0.05 (nearly every auction without a bid) and
        # 1000; the constant reserve ties, so the jitter runs too
        config = SimConfig(lam=lam, tau=tau, K=300, seed=21)
        dist = ValuationDistribution.gamma(10.0, 2.0)
        streams = np.random.SeedSequence(config.seed).spawn(config.K + 1)
        records = []
        for k in range(config.K):
            rec, (times, bids) = run_auction(lam, tau, 0.0, dist,
                                             np.random.default_rng(streams[k]),
                                             return_trace=True)
            assert rec == naive_replay(0.0, tau, times, bids)
            records.append(rec)
        reserves = naive_jittered_reserves(records, np.random.default_rng(streams[-1]))
        want = ObservedDataset(tuple(AuctionRecord(r, tau, a.jumps, a.sold)
                                     for r, a in zip(reserves, records)), tau)
        got = run_study(config, dist)
        assert got == want
        assert np.array_equal(got.tail, want.tail)


class _DyadicGaps:
    """Stands in for a generator: its exponentials are ``gaps`` in turn,
    whatever the scale, and its uniforms a fixed sawtooth.  The gaps are
    multiples of 1/16, so every sum of them is exact."""

    def __init__(self, gaps):
        self._gaps = itertools.cycle(gaps)
        self.drawn, self.sizes = [], []

    def exponential(self, scale, size):
        self.sizes.append(size)
        self.drawn += [next(self._gaps) for _ in range(size)]
        return np.array(self.drawn[-size:])

    def uniform(self, low, high, size):
        return low + (high - low) * (np.arange(size) * 0.375 % 1.0)


class TestRunAuction:
    def test_arrivals_past_the_first_block(self):
        # at lam * tau = 4 a block holds 26 gaps, which sum to 2.1875 here,
        # so the arrivals take a second block; the 48th lands on tau itself
        rng = _DyadicGaps([0.125, 0.0625, 0.0625])
        dist = ValuationDistribution.uniform(0.0, 1.0)
        rec, (times, bids) = run_auction(1.0, 4.0, 0.1, dist, rng, return_trace=True)
        assert rng.sizes == [26, 26]
        want = naive_arrival_times(rng.drawn, 4.0)
        assert len(want) == 48 and want[-1] == 4.0
        assert times.tolist() == want
        assert np.array_equal(bids, rng.uniform(0.0, 1.0, 48))
        assert rec == naive_replay(0.1, 4.0, want, bids)

    def test_matches_scalar_replay_of_its_own_trace(self):
        dist = ValuationDistribution.uniform(1.0, 20.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rec, (times, bids) = run_auction(1.0, 50.0, 0.5, dist, rng,
                                             return_trace=True)
            assert naive_replay(0.5, 50.0, times, bids) == rec

    def test_trace_times_within_window(self):
        rng = np.random.default_rng(7)
        _, (times, _) = run_auction(2.0, 10.0, 0.0,
                                    ValuationDistribution.uniform(0.0, 1.0),
                                    rng, return_trace=True)
        assert np.all(times <= 10.0)
        assert np.all(np.diff(times) > 0)


class TestValuationDistribution:
    @pytest.mark.parametrize("dist", [
        ValuationDistribution.uniform(1.0, 20.0),
        ValuationDistribution.piecewise_uniform([(1, 2, 0.5), (3, 4, 0.5)]),
        ValuationDistribution.pareto(3.0, 100.0),
        ValuationDistribution.gamma(10.0, 2.0),
        ValuationDistribution.beta(2.0, 2.0),
    ])
    def test_cdf_sample_consistency(self, dist):
        rng = np.random.default_rng(42)
        x = dist.sample(rng, 4000)
        lo, hi = dist.support()
        assert np.all(x >= lo - 1e-9)
        grid = np.linspace(lo, hi, 50)
        cdf = dist.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] <= 1e-6 and cdf[-1] >= 1.0 - 1e-6
        # empirical CDF agrees with the analytic one (loose 4-sigma check)
        emp = np.searchsorted(np.sort(x), grid, side="right") / len(x)
        assert np.max(np.abs(emp - cdf)) < 4.0 / np.sqrt(len(x))

    def test_draws_equal_scipy_rvs(self):
        # scipy.stats is the oracle: for one generator state the draws are
        # the same numbers
        for dist, ref in [
                (ValuationDistribution.gamma(10.0, 2.0), stats.gamma(a=10.0, scale=0.5)),
                (ValuationDistribution.gamma(0.5, 3.0), stats.gamma(a=0.5, scale=1 / 3)),
                (ValuationDistribution.beta(2.0, 2.0), stats.beta(2.0, 2.0)),
                (ValuationDistribution.beta(0.5, 3.0), stats.beta(0.5, 3.0))]:
            draws = dist.sample(np.random.default_rng(9), 500)
            oracle = ref.rvs(size=500, random_state=np.random.default_rng(9))
            assert np.array_equal(draws, oracle)

    @pytest.mark.parametrize("dist, ref", [
        (ValuationDistribution.gamma(10.0, 2.0), stats.gamma(a=10.0, scale=0.5)),
        (ValuationDistribution.gamma(0.5, 3.0), stats.gamma(a=0.5, scale=1 / 3)),
        (ValuationDistribution.gamma(1.0, 1.0), stats.gamma(a=1.0, scale=1.0)),
        (ValuationDistribution.beta(2.0, 2.0), stats.beta(2.0, 2.0)),
        (ValuationDistribution.beta(0.5, 3.0), stats.beta(0.5, 3.0)),
        (ValuationDistribution.beta(2.0, 5.0), stats.beta(2.0, 5.0)),
        (ValuationDistribution.pareto(3.0, 100.0), stats.pareto(b=100.0, scale=3.0)),
        (ValuationDistribution.pareto(1.0, 2.5), stats.pareto(b=2.5, scale=1.0)),
    ], ids=["gamma-10-2", "gamma-0.5-3", "gamma-1-1", "beta-2-2", "beta-0.5-3",
            "beta-2-5", "pareto-3-100", "pareto-1-2.5"])
    def test_cdf_pdf_support_match_scipy(self, dist, ref):
        lo, hi = dist.support()
        assert lo == max(float(ref.ppf(0.0)), 0.0)
        assert hi == pytest.approx(float(ref.ppf(1.0 - 1e-9)), rel=1e-12)
        # below zero, across the support, beyond its upper end and at +-inf
        x = np.concatenate((np.linspace(-1.0, 1.5 * hi, 2001),
                            [lo, hi, -0.0, -np.inf, np.inf]))
        np.testing.assert_allclose(dist.cdf(x), ref.cdf(x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bad", [
        lambda: ValuationDistribution.uniform(3.0, 2.0),
        lambda: ValuationDistribution.uniform(-1.0, 2.0),
        lambda: ValuationDistribution.pareto(0.0, 1.0),
        lambda: ValuationDistribution.gamma(1.0, 0.0),
        lambda: ValuationDistribution.beta(-1.0, 2.0),
        lambda: ValuationDistribution.piecewise_uniform([(1, 2, 0.7)]),
        lambda: ValuationDistribution("uniform", (5.0, 1.0)),
        lambda: ValuationDistribution("uniform", (-1.0, 2.0)),
        lambda: ValuationDistribution("pareto", (0.0, 1.0)),
        lambda: ValuationDistribution("gamma", (1.0, 0.0)),
        lambda: ValuationDistribution("beta", (-1.0, 2.0)),
        lambda: ValuationDistribution("piecewise_uniform", ((1.0, 2.0, 0.7),)),
        lambda: ValuationDistribution("gamma", (1.0, 2.0, 3.0)),
        lambda: ValuationDistribution("piecewise_uniform", (1.0, 2.0, 1.0)),
        lambda: ValuationDistribution("piecewise_uniform", ((1.0, 2.0, 0.5), (3.0, 4.0))),
        lambda: ValuationDistribution("piecewise_uniform", ((1.0, 2.0),)),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValidationError):
            bad()

    @pytest.mark.parametrize("kind, params, factory, message", [
        ("uniform", (5.0, 1.0), lambda: ValuationDistribution.uniform(5.0, 1.0),
         "uniform requires a < b"),
        ("uniform", (-1.0, 2.0), lambda: ValuationDistribution.uniform(-1.0, 2.0),
         "valuations must be non-negative"),
        ("pareto", (0.0, 1.0), lambda: ValuationDistribution.pareto(0.0, 1.0),
         "pareto requires scale > 0 and shape > 0"),
        ("gamma", (1.0, 0.0), lambda: ValuationDistribution.gamma(1.0, 0.0),
         "gamma requires shape > 0 and rate > 0"),
        ("beta", (-1.0, 2.0), lambda: ValuationDistribution.beta(-1.0, 2.0),
         "beta requires positive shape parameters"),
        ("piecewise_uniform", ((1.0, 2.0, 0.7),),
         lambda: ValuationDistribution.piecewise_uniform([(1, 2, 0.7)]),
         "piece weights must sum to 1"),
        ("pareto", (1.0, -np.inf), lambda: ValuationDistribution.pareto(1.0, -np.inf),
         "pareto parameters must be finite"),
    ])
    def test_direct_construction_refused_like_its_factory(self, kind, params, factory,
                                                          message):
        with pytest.raises(ValidationError) as direct:
            ValuationDistribution(kind, params)
        with pytest.raises(ValidationError) as made:
            factory()
        assert direct.value.violations == made.value.violations
        assert str(direct.value).startswith(message)

    @pytest.mark.parametrize("kind, params", [
        ("uniform", (1.0,)), ("pareto", (1.0, 2.0, 3.0)), ("gamma", (1.0, 2.0, 3.0)),
        ("beta", ()), ("uniform", 5.0)])
    def test_two_parameter_family_refuses_another_count(self, kind, params):
        with pytest.raises(ValidationError,
                           match=f"^{kind} takes 2 parameters, got {np.size(params)}$"):
            ValuationDistribution(kind, params)

    @pytest.mark.parametrize("made, kind, params", [
        (ValuationDistribution.uniform(1, 20), "uniform", (1.0, 20.0)),
        (ValuationDistribution.piecewise_uniform([(1, 2, 0.5), (3, 4, 0.5)]),
         "piecewise_uniform", ((1.0, 2.0, 0.5), (3.0, 4.0, 0.5))),
        (ValuationDistribution.pareto(3, 100), "pareto", (3.0, 100.0)),
        (ValuationDistribution.gamma(10, 2), "gamma", (10.0, 2.0)),
        (ValuationDistribution.beta(2, 5), "beta", (2.0, 5.0)),
        # params given as strings, an array or lists are stored as floats
        (ValuationDistribution.gamma("1", "2"), "gamma", ("1", "2")),
        (ValuationDistribution.uniform(1, 2), "uniform", np.array([1.0, 2.0])),
        (ValuationDistribution.uniform(1, 2), "uniform", [1.0, 2.0]),
        (ValuationDistribution.piecewise_uniform([(1, 2, 0.5), (3, 4, 0.5)]),
         "piecewise_uniform", [[1, 2, 0.5], [3, 4, 0.5]]),
    ])
    def test_factory_equals_direct_construction(self, made, kind, params):
        direct = ValuationDistribution(kind, params)
        assert direct == made
        assert hash(direct) == hash(made)

    @pytest.mark.parametrize("pieces", [[(2.0, 1.0, 1.0)], [(1.0, 1.0, 1.0)],
                                        [(1.0, 2.0, 0.5), (3.0, 3.0, 0.5)]])
    def test_piece_with_a_not_below_b_rejected(self, pieces):
        with pytest.raises(ValidationError, match="0 <= a < b"):
            ValuationDistribution.piecewise_uniform(pieces)

    @pytest.mark.parametrize("kind, params", [
        ("uniform", (0.0, np.inf)), ("gamma", (np.nan, 2.0)), ("pareto", (1.0, -np.inf)),
        ("beta", (np.inf, 2.0)), ("piecewise_uniform", ((1.0, 2.0, np.nan),))])
    def test_non_finite_parameters_rejected_at_construction(self, kind, params):
        with pytest.raises(ValidationError, match=f"{kind} parameters must be finite"):
            ValuationDistribution(kind, params)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValidationError) as err:
            ValuationDistribution("lognormal", (0.0, 1.0))
        assert "lognormal" in str(err.value)


class TestRunStudy:
    def test_study_shape_and_determinism(self):
        config = SimConfig(lam=1.0, tau=20.0, K=30, seed=99)
        dist = ValuationDistribution.uniform(1.0, 5.0)
        ds1 = run_study(config, dist)
        ds2 = run_study(config, dist)
        assert ds1.K == 30
        assert ds1.tau == 20.0
        assert not has_ties(ds1)
        assert ds1 == ds2

    def test_reserve_policy_callable(self):
        config = SimConfig(lam=0.5, tau=10.0, K=10, seed=3,
                           reserve_policy=lambda rng: rng.uniform(0.0, 2.0))
        ds = run_study(config, ValuationDistribution.uniform(1.0, 5.0))
        reserves = [a.reserve for a in ds.auctions]
        assert len(set(reserves)) == len(reserves)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(lam=0.0, tau=10.0, K=5, seed=0)
        with pytest.raises(ValidationError, match="integer K >= 1"):
            SimConfig(1.0, 5.0, 2.5, 0)
        for seed in (-1, 1.5):
            with pytest.raises(ValidationError, match="integer seed >= 0"):
                SimConfig(1.0, 5.0, 2, seed)
        # numpy integers pass, and draw what Python's do
        dist = ValuationDistribution.uniform(1.0, 5.0)
        assert (run_study(SimConfig(1.0, 5.0, np.int64(2), np.int64(3)), dist)
                == run_study(SimConfig(1.0, 5.0, 2, 3), dist))

    def test_overflowing_arrival_product_rejected(self):
        # lam and tau are each finite, but lam * tau overflows to inf
        config = SimConfig(lam=1e308, tau=1e308, K=2, seed=0)
        dist = ValuationDistribution.uniform(1.0, 5.0)
        with pytest.raises(ValidationError, match="lam \\* tau must be finite"):
            run_study(config, dist)
        with pytest.raises(ValidationError, match="lam \\* tau must be finite"):
            run_auction(1e308, 1e308, 0.0, dist, np.random.default_rng(0))

    @pytest.mark.parametrize("lam, tau", [(0.0, 10.0), (-1.0, 10.0), (1.0, -5.0),
                                          (1.0, 0.0), (float("nan"), 10.0)])
    def test_rate_and_window_not_finite_and_positive_rejected(self, lam, tau):
        dist = ValuationDistribution.uniform(1.0, 5.0)
        match = "lam and tau must be finite and > 0"
        with pytest.raises(ValidationError, match=match):
            run_auction(lam, tau, 0.0, dist, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=match):
            simulate_auctions(lam, tau, dist, [(0.0, np.random.default_rng(0))],
                              np.random.default_rng(1), 0.01)

    @pytest.mark.parametrize("reserve", [-1.0, float("nan"), float("inf")])
    def test_bad_constant_reserve_rejected(self, reserve):
        with pytest.raises(ValidationError) as err:
            SimConfig(lam=1.0, tau=10.0, K=5, seed=0, reserve_policy=reserve)
        assert len(err.value.violations) == 1
