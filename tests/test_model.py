"""Domain types, pooling order structures, and the survival-ratio maps."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (AuctionRecord, MonotoneCurve, NumericalError,
                         ObservedDataset, SimConfig, ThetaVector, TieError,
                         ValidationError, ValuationDistribution, break_ties,
                         cdf_to_theta, export_bid_log, export_dataset, fit,
                         has_ties, ingest_bid_csv, pool, read_dataset,
                         reconstruct_cdf, run_auction, run_study)
from secondprice.bands import _simulate_profile
from secondprice.model import audit_auctions, union_grid
from secondprice.pipeline import fit_initial

from helpers import naive_jittered_reserves, naive_pooled

TAU = 30.0


def four_auction_dataset():
    """Two auctions sold above reserve, one sold at reserve, one unsold."""
    a1 = AuctionRecord(10.0, TAU, ((12.0, 1.0), (15.0, 2.0), (19.0, 3.0)), True)
    a2 = AuctionRecord(5.0, TAU, ((16.0, 1.5), (18.0, 2.5), (20.0, 3.5),
                                  (25.0, 4.5)), True)
    a3 = AuctionRecord(13.0, TAU, (), True)
    a4 = AuctionRecord(7.0, TAU, (), False)
    return ObservedDataset((a1, a2, a3, a4), TAU)


class TestAuctionRecord:
    def test_properties(self):
        a = AuctionRecord(2.0, 10.0, ((3.0, 1.0), (5.0, 2.5)), True)
        assert a.m == 2
        assert a.prices == (3.0, 5.0)
        assert a.waits == (1.0, 2.5)
        assert a.final_price == 5.0

    def test_no_jump_properties(self):
        a = AuctionRecord(2.0, 10.0, (), False)
        assert a.m == 0 and a.prices == () and a.waits == ()
        assert a.final_price == 2.0
        # the reserve stands for the whole auction
        ds = ObservedDataset((a,), 10.0)
        assert np.array_equal(ds.tail, [10.0])
        assert ds.wait.size == 0

    def test_price_times_attaches_standing_durations(self):
        a = AuctionRecord(2.0, 10.0, ((3.0, 1.0), (5.0, 2.5)), True)
        ds = ObservedDataset((a,), 10.0)
        # reserve stands until the first jump; each jump price stands
        # until the next jump; the last one stands until the close
        assert np.array_equal(ds.reserve, [2.0])
        assert np.array_equal(ds.price, [3.0, 5.0])
        assert np.array_equal(ds.wait, [1.0, 2.5])
        assert np.array_equal(ds.tail, [10.0 - 3.5])

    @pytest.mark.parametrize("kwargs", [
        dict(reserve=-1.0, duration=10.0, jumps=(), sold=False),
        dict(reserve=2.0, duration=0.0, jumps=(), sold=False),
        dict(reserve=2.0, duration=10.0, jumps=((1.5, 1.0),), sold=True),
        dict(reserve=2.0, duration=10.0, jumps=((3.0, 1.0), (2.5, 1.0)), sold=True),
        dict(reserve=2.0, duration=10.0, jumps=((3.0, 0.0),), sold=True),
        dict(reserve=2.0, duration=10.0, jumps=((3.0, 11.0),), sold=True),
        dict(reserve=2.0, duration=10.0, jumps=((3.0, 1.0),), sold=False),
    ])
    def test_invalid_records_rejected(self, kwargs):
        with pytest.raises(ValidationError) as err:
            AuctionRecord(**kwargs)
        # each broken rule is named with its auction, as a dataset names it
        assert err.value.broken == [(0, t) for t in err.value.violations]

    def test_all_violations_reported_together(self):
        with pytest.raises(ValidationError) as err:
            AuctionRecord(-1.0, -2.0, (), False)
        msg = str(err.value)
        assert "reserve" in msg and "duration" in msg

    @pytest.mark.parametrize("reserve, duration, jumps", [
        (float("nan"), 10.0, ((2.0, 1.0),)),
        (float("inf"), 10.0, ()),
        (1.0, float("inf"), ((2.0, 1.0),)),
        (1.0, float("nan"), ()),
        (1.0, 10.0, ((float("nan"), 1.0),)),
        (1.0, 10.0, ((2.0, 1.0), (float("inf"), 1.0))),
        (1.0, 10.0, ((2.0, float("nan")),)),
        (1.0, 10.0, ((2.0, float("inf")),)),
    ])
    def test_non_finite_values_rejected(self, reserve, duration, jumps):
        with pytest.raises(ValidationError) as err:
            AuctionRecord(reserve, duration, jumps, True)
        assert "finite" in str(err.value)

    def test_dataset_requires_common_duration(self):
        a = AuctionRecord(1.0, 10.0, (), False)
        with pytest.raises(ValidationError):
            ObservedDataset((a,), 20.0)


class TestObservedDataset:
    def test_arrays_and_take(self):
        ds = four_auction_dataset()
        assert np.array_equal(ds.reserve, [10.0, 5.0, 13.0, 7.0])
        assert np.array_equal(ds.sold, [True, True, True, False])
        assert np.array_equal(ds.offsets, [0, 3, 7, 7, 7])
        assert np.array_equal(ds.price, [12, 15, 19, 16, 18, 20, 25])
        assert np.array_equal(ds.wait, [1.0, 2.0, 3.0, 1.5, 2.5, 3.5, 4.5])
        # time from the last change to the close; the whole auction if none
        assert np.array_equal(ds.tail, [TAU - 6.0, TAU - 12.0, TAU, TAU])
        assert np.array_equal(ds.m, [3, 4, 0, 0])
        assert np.array_equal(ds.final_price, [19.0, 25.0, 13.0, 7.0])
        assert not ds.price.flags.writeable
        # the arrays and tau are the data: equality and hash compare them
        assert ds == four_auction_dataset()
        assert hash(ds) == hash(four_auction_dataset())
        sub = ds.take([2, 0])
        assert np.array_equal(sub.reserve, [13.0, 10.0])
        assert np.array_equal(sub.offsets, [0, 0, 3])
        assert np.array_equal(sub.price, [12, 15, 19])
        assert sub == ObservedDataset((ds.auctions[2], ds.auctions[0]), TAU)

    @pytest.mark.parametrize("idx", [[1, 1, 3, 1], [3, 2, 1, 0], [2, 3, 2], [0], [-1, 0]])
    def test_take_matches_records(self, idx):
        # repeats, reversed order and auctions without jumps
        ds = four_auction_dataset()
        sub = ds.take(idx)
        want = ObservedDataset(tuple(ds.auctions[k] for k in idx), TAU)
        assert sub == want and hash(sub) == hash(want)
        for name in ("reserve", "sold", "offsets", "price", "wait", "tail"):
            assert np.array_equal(getattr(sub, name), getattr(want, name))
        assert sub.auctions == want.auctions

    @pytest.mark.parametrize("mask", [[True, False, True, False], [False, False, False, True],
                                      [True] * 4])
    def test_take_selects_a_boolean_mask(self, mask):
        ds = four_auction_dataset()
        assert ds.take(mask) == ds.take(np.flatnonzero(mask))
        assert ds.take(np.array(mask)).K == sum(mask)

    @pytest.mark.parametrize("idx", [[1.7], [1.0, 2.0], np.array([0.5]), [True, False],
                                     ["1"], 2, [[0, 1], [2, 3]], [], [4], [0, -5]])
    def test_take_refuses_other_indices(self, idx):
        # a float is not truncated, a short mask is not read as 0s and 1s,
        # indices come as one list and lie in [-K, K), and an empty
        # selection leaves no auction
        with pytest.raises(ValidationError):
            four_auction_dataset().take(idx)

    def test_one_ulp_apart_is_unequal(self):
        ds = four_auction_dataset()
        wait = ds.wait.copy()
        wait[4] = np.nextafter(wait[4], np.inf)
        other = ObservedDataset.from_arrays(ds.reserve, ds.sold, ds.m, ds.price, wait, TAU)
        assert other != ds and ds != other
        same = ObservedDataset.from_arrays(ds.reserve, ds.sold, ds.m, ds.price,
                                           ds.wait.copy(), TAU)
        assert same == ds and hash(same) == hash(ds)

    def test_hash_agrees_with_equality(self):
        # -0.0 == 0.0, so the two reserves must hash alike
        a = ObservedDataset((AuctionRecord(-0.0, 10.0, ((1.0, 2.0),), True),), 10.0)
        b = ObservedDataset((AuctionRecord(0.0, 10.0, ((1.0, 2.0),), True),), 10.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, four_auction_dataset(), four_auction_dataset()}) == 2

    def test_hot_paths_build_no_records(self, tmp_path, monkeypatch):
        dist = ValuationDistribution.uniform(1.0, 20.0)
        rng = np.random.default_rng(3)
        traces = [(0.5, *run_auction(1.0, 10.0, 0.5, dist, rng, return_trace=True)[1])
                  for _ in range(30)]
        export_bid_log(tmp_path / "log.csv", traces, 10.0)

        def refuse(record):
            raise RuntimeError("an AuctionRecord was built")

        monkeypatch.setattr(AuctionRecord, "__post_init__", refuse)
        with pytest.raises(RuntimeError):
            AuctionRecord(1.0, 10.0, (), False)
        ds = run_study(SimConfig(lam=1.0, tau=100.0, K=200, seed=4), dist)
        export_dataset(ds, tmp_path / "ds.csv")
        assert read_dataset(tmp_path / "ds.csv") == ds
        _, report = ingest_bid_csv(tmp_path / "log.csv", 10.0, noise_seed=1,
                                   noise_scale=0.0)
        assert report.reserve_jitter
        assert ds.take([5, 2, 2]).K == 3
        break_ties(ds, np.random.default_rng(0))
        fit(ds)
        _simulate_profile(1.0, 20.0, np.zeros(50), np.random.default_rng(1))

    def test_from_arrays_names_the_invalid_auction(self):
        ds = four_auction_dataset()
        price = ds.price.copy()
        price[5] = price[4]      # auction 1's third jump repeats its second
        with pytest.raises(ValidationError) as err:
            ObservedDataset.from_arrays(ds.reserve, ds.sold, ds.m, price, ds.wait, TAU)
        assert err.value.violations == [
            "auction 1: jump prices not strictly increasing at 18.0 -> 18.0"]
        with pytest.raises(ValidationError):
            ObservedDataset.from_arrays(ds.reserve, ds.sold, [3, 4, 0], ds.price,
                                        ds.wait, TAU)

    def test_from_arrays_needs_an_auction(self):
        for make in (lambda: ObservedDataset.from_arrays([], [], [], [], [], TAU),
                     lambda: ObservedDataset((), TAU)):
            with pytest.raises(ValidationError, match="at least one auction"):
                make()


class TestAuditAuctions:
    def test_wait_sums_add_left_to_right(self):
        # waits over 16 orders of magnitude, so the order of the additions
        # shows in the sums
        rng = np.random.default_rng(2)
        m = rng.integers(0, 30, 40)
        wait = rng.uniform(0.5, 1.0, m.sum()) * 10.0 ** rng.integers(-8, 8, m.sum())
        price = np.arange(1.0, m.sum() + 1.0)
        _, spent = audit_auctions(np.zeros(40), 1.0, np.ones(40, dtype=bool), m, price, wait)
        start = m.cumsum() - m
        assert spent.tolist() == [sum(wait[a:a + k].tolist()) for a, k in zip(start, m)]

    def test_refused_dataset_keeps_its_broken_pairs(self):
        # auction 0 has a negative reserve and auction 1 a first jump at
        # its reserve; the readers name each by these (k, rule) pairs
        columns = ([-1.0, 1.0, 2.0], [False, True, True], [0, 1, 1], [1.0, 3.0], [1.0, 1.0])
        with pytest.raises(ValidationError) as refused:
            ObservedDataset.from_arrays(*columns, TAU)
        assert refused.value.broken == audit_auctions(columns[0], TAU, *columns[1:])[0]
        assert refused.value.violations == [
            "auction 0: reserve -1.0 is negative",
            "auction 1: first jump price 1.0 does not exceed reserve 1.0"]


def no_jump_dataset(reserves=(3.0, 1.0, 2.0), sold=(True, False, True)):
    return ObservedDataset(tuple(AuctionRecord(r, TAU, (), s)
                                 for r, s in zip(reserves, sold)), TAU)


class TestNoJumps:
    def test_empty_jump_arrays(self):
        ds = no_jump_dataset()
        for arr in (ds.price, ds.wait):
            assert arr.dtype == np.float64 and arr.shape == (0,)
        assert ds.offsets.dtype.kind == "i"
        assert np.array_equal(ds.offsets, [0, 0, 0, 0])
        assert np.array_equal(ds.m, [0, 0, 0])
        assert np.array_equal(ds.tail, [TAU] * 3)
        assert np.array_equal(ds.final_price, ds.reserve)

    def test_wait_sums_are_float(self):
        ds = no_jump_dataset()
        assert ds.tail.dtype == np.float64
        violations, spent = audit_auctions(ds.reserve, TAU, ds.sold, ds.m, ds.price, ds.wait)
        assert violations == [] and spent.dtype == np.float64
        assert np.array_equal(spent, [0.0] * 3)

    def test_pool(self):
        p = pool(no_jump_dataset())
        assert p.ell == 0 and p.n == 3
        assert np.array_equal(p.z, [1.0, 2.0, 3.0])
        assert np.array_equal(p.ttilde, [TAU] * 3)
        assert p.S == p.Sbar == frozenset()
        assert p.Ks == frozenset({0, 2})
        assert np.array_equal(p.l, [0, 0, 0])
        assert np.array_equal(p.qsize, [0, 0, 0])

    def test_fit_initial_fails(self):
        with pytest.raises(NumericalError):
            fit_initial(no_jump_dataset())

    def test_break_ties(self):
        ds = no_jump_dataset(reserves=(1.0, 1.0, 2.0))
        assert has_ties(ds)
        out = break_ties(ds, np.random.default_rng(4))
        assert not has_ties(out) and out.price.shape == (0,)
        expected = naive_jittered_reserves(ds.auctions, np.random.default_rng(4))
        assert out.reserve.tolist() == expected

    def test_break_ties_returns_a_tie_free_dataset_untouched(self):
        ds = no_jump_dataset()
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert break_ties(ds, rng) is ds
        assert rng.bit_generator.state == state

    def test_break_ties_makes_its_generator_only_on_a_tie(self):
        made = []

        def make():
            made.append(1)
            return np.random.default_rng(4)

        ds = no_jump_dataset()
        assert break_ties(ds, make) is ds and not made
        tied = no_jump_dataset(reserves=(1.0, 1.0, 2.0))
        out = break_ties(tied, make)
        assert made == [1]
        assert out.reserve.tolist() == break_ties(tied, np.random.default_rng(4)).reserve.tolist()

    def test_zero_scale_jitter_leaves_tied_reserves_tied(self):
        ds = no_jump_dataset(reserves=(1.0, 1.0, 2.0))
        with pytest.raises(TieError, match="ties persist"):
            break_ties(ds, np.random.default_rng(4), scale=0.0)


class TestPooling:
    def test_four_auction_order_structures(self):
        p = pool(four_auction_dataset())
        assert p.ell == 7
        assert np.array_equal(p.xbar, [12, 15, 16, 18, 19, 20, 25])
        assert p.S == frozenset({5, 7})
        assert p.Ks == frozenset({0, 1, 2})  # 0-based auction indices
        assert np.array_equal(p.z, [5, 7, 10, 12, 13, 15, 16, 18, 19, 20, 25])
        assert p.Sbar == frozenset({9, 11})
        assert np.array_equal(p.u, [4, 6, 7, 8, 9, 10, 11])
        assert np.array_equal(p.l, [0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7])

    def test_four_auction_attached_times(self):
        p = pool(four_auction_dataset())
        tail1 = TAU - 6.0
        tail2 = TAU - 12.0
        assert np.array_equal(
            p.ttilde,
            [1.5, TAU, 1.0, 2.0, TAU, 3.0, 2.5, 3.5, tail1, 4.5, tail2])
        assert np.array_equal(p.qsize, [2] * 9 + [1, 1])

    def test_pool_rejects_ties(self):
        a1 = AuctionRecord(1.0, 10.0, ((2.0, 1.0),), True)
        a2 = AuctionRecord(1.0, 10.0, (), False)
        with pytest.raises(TieError):
            pool(ObservedDataset((a1, a2), 10.0))

    def test_pool_rejects_a_reserve_tying_another_auctions_jump(self):
        a1 = AuctionRecord(1.0, 10.0, ((2.0, 1.0),), True)
        a2 = AuctionRecord(2.0, 10.0, (), False)
        with pytest.raises(TieError, match="^ties among pooled prices; "
                                           "apply noise before pooling$"):
            pool(ObservedDataset((a1, a2), 10.0))

    def test_stored_fields_are_arrays(self):
        p = pool(four_auction_dataset())
        for f in dataclasses.fields(p):
            assert isinstance(getattr(p, f.name), np.ndarray), f.name

    def test_matches_per_auction_reference(self):
        # random reserves leave auctions unsold, and sold without a jump
        ds = run_study(SimConfig(lam=0.5, tau=10.0, K=60, seed=3,
                                 reserve_policy=lambda rng: rng.uniform(0.0, 15.0)),
                       ValuationDistribution.uniform(1.0, 20.0))
        assert (~ds.sold).any() and (ds.sold & (ds.m == 0)).any()
        p, want = pool(ds), naive_pooled(ds.auctions)
        for name in ("xbar", "l", "qsize"):
            assert np.array_equal(getattr(p, name), want[name]), name
        assert p.xbar.dtype == np.float64 and p.l.dtype == p.qsize.dtype == np.intp
        assert (p.S, p.Sbar, p.Ks) == (want["S"], want["Sbar"], want["Ks"])

    def test_break_ties_then_pool(self):
        a1 = AuctionRecord(1.0, 10.0, ((2.0, 1.0),), True)
        a2 = AuctionRecord(1.0, 10.0, (), False)
        ds = ObservedDataset((a1, a2), 10.0)
        assert has_ties(ds)
        out = break_ties(ds, np.random.default_rng(0))
        assert not has_ties(out)
        # the jitter never lets a reserve overtake its first jump price
        assert out.reserve[0] < out.price[0]
        pool(out)

    def test_break_ties_matches_scalar_draws(self):
        # caps below the scale (first jumps just above the reserve) and at
        # it; one draw per auction in auction order
        ds = ObservedDataset((
            AuctionRecord(1.0, 10.0, ((1.004, 1.0),), True),
            AuctionRecord(1.0, 10.0, (), False),
            AuctionRecord(1.0, 10.0, ((3.0, 2.0), (4.0, 1.0)), True),
            AuctionRecord(2.0, 10.0, (), True),
            AuctionRecord(2.0, 10.0, ((2.001, 1.0),), True)), 10.0)
        out = break_ties(ds, np.random.default_rng(7))
        expected = naive_jittered_reserves(ds.auctions, np.random.default_rng(7))
        assert out.reserve.tolist() == expected
        assert all(type(a.reserve) is float for a in out.auctions)
        assert [a.jumps for a in out.auctions] == [a.jumps for a in ds.auctions]


class TestMonotoneCurve:
    def test_pl_interpolates(self):
        c = MonotoneCurve([0.0, 2.0], [0.0, 1.0])
        assert c(1.0) == pytest.approx(0.5)
        assert c(-1.0) == 0.0
        assert c(3.0) == 1.0

    def test_vector_call(self):
        c = MonotoneCurve([1.0, 2.0], [0.3, 0.8])
        out = c(np.array([0.0, 1.0, 1.5, 2.0, 2.5]))
        assert np.allclose(out, [0.3, 0.3, 0.55, 0.8, 0.8], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("knots,values", [
        ([2.0, 1.0], [0.1, 0.2]),
        ([1.0, 2.0], [0.5, 0.2]),
        ([1.0, 2.0], [0.5, 1.5]),
        ([], []),
    ])
    def test_invalid_curve_rejected(self, knots, values):
        with pytest.raises(ValidationError):
            MonotoneCurve(knots, values)

    @pytest.mark.parametrize("knots,values", [
        ([1.0, np.nan], [0.1, 0.2]),
        ([1.0, np.inf], [0.1, 0.2]),
        ([1.0, 2.0], [np.nan, 0.2]),
        ([1.0, 2.0], [0.1, np.nan]),
    ])
    def test_non_finite_curve_rejected(self, knots, values):
        # NaN fails no ordering comparison, so it needs its own check
        with pytest.raises(ValidationError, match="finite"):
            MonotoneCurve(knots, values)

    def test_interpolate_anchor_zero(self):
        c = MonotoneCurve.from_zero([1.0, 2.0], [0.4, 1.0])
        assert np.array_equal(c.knots, [0.0, 1.0, 2.0])
        assert np.array_equal(c.values, [0.0, 0.4, 1.0])
        assert c(0.5) == pytest.approx(0.2)
        assert c(1.5) == pytest.approx(0.7)
        # a curve that already starts at or below 0 is kept as it is
        for first in (0.0, -1.0):
            c = MonotoneCurve.from_zero([first, 2.0], [0.1, 1.0])
            assert np.array_equal(c.knots, [first, 2.0])
            assert np.array_equal(c.values, [0.1, 1.0])
        with pytest.raises(ValidationError):
            MonotoneCurve.from_zero([], [])


class TestUnionGrid:
    @given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2**-52, 3.25, -2.0]),
                             max_size=12), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_is_numpys_unique_of_the_concatenation(self, arrays):
        arrays = [np.array(a, dtype=float) for a in arrays]
        want = np.unique(np.concatenate(arrays))
        got = union_grid(arrays)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestThetaMaps:
    def test_known_values(self):
        z = np.array([1.0, 2.0, 3.0])
        theta = cdf_to_theta(np.array([0.0, 0.5, 0.75]))
        assert np.allclose(theta.theta, [1.0, 0.5, 0.5])
        back = reconstruct_cdf(theta, z)
        assert np.allclose(back(z), [0.0, 0.5, 0.75])

    def test_zero_survival_convention(self):
        # once F reaches 1 the later ratios are 0/0 := 0
        theta = cdf_to_theta(np.array([0.5, 1.0, 1.0]))
        assert theta.theta[2] == 0.0

    @given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, raw):
        values = np.sort(np.asarray(raw))
        z = np.arange(1.0, len(values) + 1.0)
        back = reconstruct_cdf(cdf_to_theta(values), z)
        assert np.allclose(back(z), values, atol=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_cdf_from_theta_is_monotone(self, raw):
        theta = ThetaVector(raw)
        z = np.arange(1.0, len(theta) + 1.0)
        curve = reconstruct_cdf(theta, z)
        assert curve(0.0) == 0.0
        assert np.all(np.diff(curve.values) >= 0.0)
        assert curve.values[0] >= 0.0 and curve.values[-1] <= 1.0

    @pytest.mark.parametrize("theta", [[0.5, 1.0 + 1e-9], [-1e-9, 0.5]])
    def test_theta_outside_the_unit_interval_rejected(self, theta):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ThetaVector(np.array(theta))
        ThetaVector(np.clip(theta, -1e-13, 1.0 + 1e-13))    # within rounding slack

    def test_nan_theta_rejected(self):
        # NaN fails every ordering comparison, so it is no case of the test above
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ThetaVector(np.array([0.5, np.nan]))
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            cdf_to_theta([0.1, np.nan, 0.5])
