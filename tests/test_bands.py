"""Batch-split confidence bands: batch-count arithmetic, envelope
construction, and the median-bias Monte Carlo approximation."""

import logging
from itertools import count

import numpy as np
import pytest
from helpers import naive_jittered_reserves

from secondprice import (AuctionRecord, ConfidenceBand, NumericalError,
                         ObservedDataset, ValidationError, ValuationDistribution,
                         bands, estimate_median_bias, hulc_band, hulc_batches,
                         run_auction, write_band_csv)
from secondprice.bands import _fit_kind, _simulate_profile


class TestBatchCount:
    def test_known_values(self):
        assert hulc_batches(0.10, 0.0) == 5
        assert hulc_batches(0.05, 0.0) == 6
        assert hulc_batches(0.01, 0.0) == 8

    def test_definition_is_the_smallest_feasible_count(self):
        for alpha, delta in ((0.10, 0.0), (0.05, 0.1), (0.2, 0.3)):
            B = hulc_batches(alpha, delta)
            assert (0.5 + delta) ** B + (0.5 - delta) ** B <= alpha
            if B > 1:
                assert (0.5 + delta) ** (B - 1) + (0.5 - delta) ** (B - 1) > alpha

    def test_monotone_in_level_and_bias(self):
        assert hulc_batches(0.01, 0.0) >= hulc_batches(0.10, 0.0)
        assert hulc_batches(0.10, 0.3) >= hulc_batches(0.10, 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            hulc_batches(0.0, 0.0)
        with pytest.raises(ValidationError):
            hulc_batches(0.1, 0.5)
        with pytest.raises(ValidationError):
            hulc_batches(0.1, -0.1)


class TestConfidenceBand:
    def test_width(self):
        band = ConfidenceBand([1.0, 2.0], [0.1, 0.2], [0.3, 0.6], batches=5)
        assert band.average_width == pytest.approx(0.3)

    def test_crossed_envelopes_rejected(self):
        with pytest.raises(ValidationError):
            ConfidenceBand([1.0, 2.0], [0.5, 0.6], [0.3, 0.7], batches=5)

    def test_non_monotone_envelope_rejected(self):
        with pytest.raises(ValidationError):
            ConfidenceBand([1.0, 2.0], [0.3, 0.2], [0.5, 0.6], batches=5)

    @pytest.mark.parametrize("knots", [[2.0, 1.0], [1.0, 1.0], [1.0, np.nan],
                                       [-np.inf, 1.0], []],
                             ids=["descending", "repeated", "nan", "inf", "empty"])
    def test_bad_knots_rejected(self, knots):
        # the envelopes are curves, held to the curve rules
        n = len(knots)
        with pytest.raises(ValidationError):
            ConfidenceBand(knots, [0.1] * n, [0.3] * n, batches=5)


class TestHulcBand:
    def test_band_on_synthetic_data(self, uniform_dataset):
        band = hulc_band(uniform_dataset, "mle", alpha=0.10, delta=0.0,
                         rng=0)
        assert band.batches == 5
        assert np.all(band.lower <= band.upper + 1e-12)
        assert np.all(np.diff(band.lower) >= -1e-12)
        assert np.all(np.diff(band.upper) >= -1e-12)
        assert band.average_width > 0.0

    def test_init_band(self, uniform_dataset):
        band = hulc_band(uniform_dataset, "init", alpha=0.10, delta=0.0,
                         rng=0)
        assert band.batches == 5
        assert band.average_width > 0.0

    def test_too_few_auctions_rejected(self, uniform_dataset):
        from secondprice import ObservedDataset
        tiny = ObservedDataset(uniform_dataset.auctions[:3],
                               uniform_dataset.tau)
        with pytest.raises(ValidationError):
            hulc_band(tiny, "mle", alpha=0.10, delta=0.0, rng=0)

    def test_unknown_kind_rejected(self, uniform_dataset):
        with pytest.raises(ValidationError):
            hulc_band(uniform_dataset, "bootstrap", alpha=0.10, delta=0.0,
                      rng=0)

    @pytest.mark.parametrize("rng", [-1, 1.5, "a"])
    def test_bad_rng_rejected(self, uniform_dataset, rng):
        with pytest.raises(ValidationError, match="does not seed a generator"):
            hulc_band(uniform_dataset, "mle", alpha=0.10, delta=0.0, rng=rng)

    def test_band_csv(self, tmp_path, uniform_dataset, uniform_fit):
        band = hulc_band(uniform_dataset, "init", alpha=0.10, delta=0.0,
                         rng=0)
        path = tmp_path / "band.csv"
        write_band_csv(band, uniform_fit.f_init, path,
                       header_lines=["alpha=0.10"])
        rows = [r for r in path.read_text().splitlines()
                if not r.startswith("#")]
        assert rows[0] == "x,lower,upper,estimate"
        assert len(rows) - 1 == len(band.knots)


class TestMedianBias:
    @pytest.mark.parametrize("lam, tau", [(0.5, 6.98), (1.0, 105.0)])
    def test_replicate_equals_single_auction_runs(self, lam, tau):
        # one generator draws every auction's bidders in turn, then the
        # reserve jitter; half the reserves are 0, so the jitter runs
        reserves = np.where(np.arange(200) % 2, np.linspace(0.0, 0.9, 200), 0.0)
        dist = ValuationDistribution.uniform(0.0, 1.0)
        rng = np.random.default_rng(17)
        records = [run_auction(lam, tau, float(r), dist, rng) for r in reserves]
        jittered = naive_jittered_reserves(records, rng, scale=1e-6)
        want = ObservedDataset(tuple(AuctionRecord(r, tau, a.jumps, a.sold)
                                     for r, a in zip(jittered, records)), tau)
        shared = np.random.default_rng(17)
        assert _simulate_profile(lam, tau, reserves, shared) == want
        assert shared.bit_generator.state == rng.bit_generator.state

    def test_small_run(self, uniform_dataset):
        delta = estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)
        assert isinstance(delta, float)
        assert 0.0 <= delta < 0.5

    def test_validation(self, uniform_dataset):
        with pytest.raises(ValidationError):
            estimate_median_bias(uniform_dataset, "init", mc_reps=50, rng=0)
        with pytest.raises(ValidationError):
            estimate_median_bias(uniform_dataset, "quantile", mc_reps=100, rng=0)

    def test_arguments_are_checked_before_the_initial_fit(self):
        # the low-reserve auctions (reserves 0 and 0.001) never jump, so
        # the initial fit of this dataset fails with NumericalError
        tau = 10.0
        ds = ObservedDataset((AuctionRecord(0.0, tau, (), False),
                              AuctionRecord(0.001, tau, (), False),
                              AuctionRecord(5.0, tau, ((6.0, 1.0),), True),
                              AuctionRecord(5.5, tau, ((7.0, 2.0),), True)), tau)
        with pytest.raises(ValidationError, match="unknown estimator kind"):
            estimate_median_bias(ds, "quantile", mc_reps=100, rng=0)
        for mc_reps in (5, 150.5, np.float64(120.0)):
            with pytest.raises(ValidationError, match="mc_reps >= 100"):
                estimate_median_bias(ds, "init", mc_reps=mc_reps, rng=0)
        for rng in (-1, 1.5):
            with pytest.raises(ValidationError, match="does not seed a generator"):
                estimate_median_bias(ds, "mle", mc_reps=100, rng=rng)
        with pytest.raises(NumericalError, match="arrival-rate estimate is zero"):
            estimate_median_bias(ds, "init", mc_reps=100, rng=0)

    def test_failed_replicates_are_left_out(self, uniform_dataset, monkeypatch):
        # every other replicate fails; the median runs over the other 50
        calls, kept = count(1), []

        def every_other(sample, kind, q, epsilon):
            if next(calls) % 2 == 0:
                raise NumericalError("injected")
            curve = _fit_kind(sample, kind, q, epsilon)
            kept.append(curve(bands._BIAS_GRID))
            return curve

        monkeypatch.setattr(bands, "_fit_kind", every_other)
        delta = estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)
        assert len(kept) == 50
        median = np.sort(kept, axis=0)[24]
        assert delta == float(np.max(np.abs(median - bands._BIAS_GRID)))

    @pytest.mark.parametrize("successes", [0, 1])
    def test_fewer_than_two_replicates_is_numerical_error(self, uniform_dataset,
                                                          monkeypatch, successes):
        calls = count(1)

        def failing(sample, kind, q, epsilon):
            call = next(calls)
            if call > successes:
                raise (NumericalError if call % 2 else ValidationError)("injected")
            return _fit_kind(sample, kind, q, epsilon)

        monkeypatch.setattr(bands, "_fit_kind", failing)
        with pytest.raises(NumericalError,
                           match=f"failed in {100 - successes} of 100 replicates"):
            estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)

    def test_failure_reasons_are_logged_once(self, uniform_dataset, monkeypatch,
                                             caplog):
        # a third of the fits fail with a two-line message, the rest of the
        # failures with a ValidationError; only the first line is a reason
        calls = count(1)

        def failing(sample, kind, q, epsilon):
            call = next(calls)
            if call % 3 == 0:
                raise NumericalError("solver stalled\nat iteration 7")
            if call % 10 == 0:
                raise ValidationError("bad sample")
            return _fit_kind(sample, kind, q, epsilon)

        monkeypatch.setattr(bands, "_fit_kind", failing)
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)
        [record] = caplog.records
        assert record.name.startswith("secondprice")
        assert record.getMessage() == (
            "median-bias simulation left out 40 of 100 replicates: "
            "NumericalError: solver stalled (33 times); "
            "ValidationError: bad sample (7 times)")

    def test_all_failed_error_names_the_most_frequent_reason(self, uniform_dataset,
                                                             monkeypatch):
        calls = count(1)

        def failing(sample, kind, q, epsilon):
            raise (ValidationError("bad sample") if next(calls) == 1
                   else NumericalError("solver stalled\nat iteration 7"))

        monkeypatch.setattr(bands, "_fit_kind", failing)
        with pytest.raises(NumericalError) as err:
            estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)
        assert str(err.value) == (
            "median-bias simulation failed in 100 of 100 replicates; "
            "most often NumericalError: solver stalled (99 times)")

    def test_no_warning_without_failures(self, uniform_dataset, caplog):
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)
        assert not caplog.records

    def test_simulation_error_propagates_uncounted(self, uniform_dataset,
                                                   monkeypatch, caplog):
        # an error outside the fit is not a failed replicate
        calls = count(1)

        def simulate(*args):
            if next(calls) == 3:
                raise NumericalError("simulation broke")
            return _simulate_profile(*args)

        monkeypatch.setattr(bands, "_simulate_profile", simulate)
        with caplog.at_level(logging.WARNING, logger="secondprice"):
            with pytest.raises(NumericalError, match="^simulation broke$"):
                estimate_median_bias(uniform_dataset, "init", mc_reps=100, rng=0)
        assert not caplog.records
