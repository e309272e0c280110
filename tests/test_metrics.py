"""Distance computations between CDF estimates and the replication
harnesses built on them."""

from collections import Counter
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (MonotoneCurve, NumericalError, ValidationError,
                         ValuationDistribution, fit, ks_distance, metrics,
                         replicate_table, train_test_eval, tv_distance,
                         write_report_csv)


def failing_fit(fails, message="injected"):
    """`fit`, except that the calls (counted from 1) for which
    ``fails(call)`` holds raise NumericalError(``message``)."""
    calls = count(1)

    def wrapped(*args, **kwargs):
        if fails(next(calls)):
            raise NumericalError(message)
        return fit(*args, **kwargs)
    return wrapped


TWO_LINES = "solver stalled\nat iteration 7"
STALLED = Counter({("NumericalError", "solver stalled"): 2})


class TestKS:
    def test_identical_curves(self):
        c = MonotoneCurve([0.0, 1.0, 2.0], [0.0, 0.4, 1.0])
        assert ks_distance(c, c) == 0.0

    def test_known_value(self):
        # F1 rises over [0, 1]; F2 rises over [0, 2]; gap peaks at x=1
        f1 = MonotoneCurve([0.0, 1.0], [0.0, 1.0])
        f2 = MonotoneCurve([0.0, 2.0], [0.0, 1.0])
        assert ks_distance(f1, f2) == pytest.approx(0.5)

    def test_terminal_gap_counts(self):
        # a defective estimate never reaching 1 versus a full CDF
        f1 = MonotoneCurve([0.0, 1.0], [0.0, 0.7])
        f2 = MonotoneCurve([0.0, 1.0], [0.0, 1.0])
        assert ks_distance(f1, f2) == pytest.approx(0.3)

    def test_against_analytic(self):
        dist = ValuationDistribution.uniform(0.0, 2.0)
        est = MonotoneCurve([0.0, 1.0], [0.0, 1.0])
        assert ks_distance(est, dist) == pytest.approx(0.5, abs=1e-6)
        exact = MonotoneCurve([0.0, 2.0], [0.0, 1.0])
        assert ks_distance(exact, dist) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        f1 = MonotoneCurve([0.0, 1.0, 3.0], [0.0, 0.6, 1.0])
        f2 = MonotoneCurve([0.0, 2.0], [0.1, 1.0])
        assert ks_distance(f1, f2) == ks_distance(f2, f1)


    def test_negative_knots_count(self):
        # the curves differ by 1 at x = -1, below the origin
        f1 = MonotoneCurve([-2.0, -1.0, 0.0], [0.0, 1.0, 1.0])
        f2 = MonotoneCurve([-2.0, -1.0, 0.0], [0.0, 0.0, 1.0])
        assert ks_distance(f1, f2) == 1.0
        assert ks_distance(f1, f2) <= tv_distance(f1, f2)


class TestTV:
    def test_identical_curves(self):
        c = MonotoneCurve([0.0, 1.0, 2.0], [0.0, 0.4, 1.0])
        assert tv_distance(c, c) == 0.0

    def test_disjoint_supports(self):
        f1 = MonotoneCurve([0.0, 1.0], [0.0, 1.0])
        f2 = MonotoneCurve([2.0, 3.0], [0.0, 1.0])
        assert tv_distance(f1, f2) == pytest.approx(1.0)

    def test_known_value(self):
        # densities 1 vs 1/2 on [0,1], 0 vs 1/2 on [1,2]
        f1 = MonotoneCurve([0.0, 1.0], [0.0, 1.0])
        f2 = MonotoneCurve([0.0, 2.0], [0.0, 1.0])
        assert tv_distance(f1, f2) == pytest.approx(0.5)

    def test_against_analytic(self):
        dist = ValuationDistribution.uniform(0.0, 2.0)
        est = MonotoneCurve([0.0, 1.0], [0.0, 1.0])
        assert tv_distance(est, dist) == pytest.approx(0.5, abs=1e-4)
        exact = MonotoneCurve([0.0, 2.0], [0.0, 1.0])
        assert tv_distance(exact, dist) == pytest.approx(0.0, abs=1e-4)

    def test_symmetry(self):
        f1 = MonotoneCurve([0.0, 1.0, 3.0], [0.0, 0.6, 1.0])
        f2 = MonotoneCurve([0.0, 2.0], [0.1, 1.0])
        assert tv_distance(f1, f2) == tv_distance(f2, f1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ks_bounded_by_tv(self, data):
        def draw_curve():
            raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                     max_size=8))
            values = np.sort(np.asarray(raw))
            knots = np.cumsum(data.draw(st.lists(
                st.floats(0.1, 2.0), min_size=len(values),
                max_size=len(values))))
            return MonotoneCurve(knots, values)

        f1, f2 = draw_curve(), draw_curve()
        assert ks_distance(f1, f2) <= tv_distance(f1, f2) + 1e-9


class TestReplicateTable:
    def test_bitwise_reproducible(self):
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        r1 = replicate_table(settings_, replicates=2, base_seed=17,
                             lam=0.5, tau=20.0)
        r2 = replicate_table(settings_, replicates=2, base_seed=17,
                             lam=0.5, tau=20.0)
        assert r1[0].raw == r2[0].raw
        assert r1[0].label == "uniform-K25"
        assert 0.0 <= r1[0].mean_ks_mle <= 1.0
        assert r1[0].failures == 0

    def test_report_csv(self, tmp_path):
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        reports = replicate_table(settings_, replicates=1, base_seed=1,
                                  lam=0.5, tau=20.0)
        path = tmp_path / "report.csv"
        write_report_csv(reports, path, header_lines=["origin=test"])
        text = path.read_text()
        assert text.startswith("# origin=test\n")
        assert "uniform-K25" in text

    def test_failed_replicates_are_counted_and_left_out(self, tmp_path,
                                                       monkeypatch):
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        [full] = replicate_table(settings_, replicates=4, base_seed=3,
                                 lam=0.5, tau=20.0)
        monkeypatch.setattr(metrics, "fit", failing_fit(lambda call: call % 2 == 0))
        [report] = replicate_table(settings_, replicates=4, base_seed=3,
                                   lam=0.5, tau=20.0)
        assert (report.replicates, report.failures) == (2, 2)
        assert report.raw == (full.raw[0], full.raw[2])
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        assert path.read_text().splitlines()[1].startswith("uniform-K25,2,2,")

    def test_every_replicate_failing_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(metrics, "fit", failing_fit(lambda call: True))
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        with pytest.raises(NumericalError, match="every replicate failed"):
            replicate_table(settings_, replicates=3, base_seed=1)

    def test_failure_reasons(self, monkeypatch):
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        [clean] = replicate_table(settings_, replicates=1, base_seed=3,
                                  lam=0.5, tau=20.0)
        assert clean.reasons == Counter()
        monkeypatch.setattr(metrics, "fit",
                            failing_fit(lambda call: call % 2 == 0, TWO_LINES))
        [report] = replicate_table(settings_, replicates=4, base_seed=3,
                                   lam=0.5, tau=20.0)
        assert (report.failures, report.reasons) == (2, STALLED)

    def test_all_failed_error_names_the_most_frequent_reason(self, monkeypatch):
        monkeypatch.setattr(metrics, "fit", failing_fit(lambda call: True, TWO_LINES))
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        with pytest.raises(NumericalError) as err:
            replicate_table(settings_, replicates=3, base_seed=1)
        assert str(err.value) == ("every replicate failed for setting uniform, K=25; "
                                  "most often NumericalError: solver stalled (3 times)")

    @pytest.mark.parametrize("stage", ["run_study", "ks_distance"])
    def test_simulation_or_scoring_error_propagates(self, monkeypatch, stage):
        # only the fit's own errors are failed replicates
        real, calls = getattr(metrics, stage), count(1)

        def breaking(*args):
            if next(calls) == 2:
                raise NumericalError(f"{stage} broke")
            return real(*args)

        monkeypatch.setattr(metrics, stage, breaking)
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        with pytest.raises(NumericalError, match=f"^{stage} broke$"):
            replicate_table(settings_, replicates=3, base_seed=1, lam=0.5, tau=20.0)

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_replicate_count_below_one_rejected(self, replicates):
        settings_ = [(ValuationDistribution.uniform(1.0, 5.0), 25)]
        with pytest.raises(ValidationError, match="replicate"):
            replicate_table(settings_, replicates=replicates, base_seed=1)


class TestTrainTest:
    def test_split_protocol(self, uniform_dataset):
        report = train_test_eval(uniform_dataset, ratio=0.5, replications=2,
                                 rng=0)
        assert report.replications == 2
        assert 0.0 <= report.avg_tv_mle <= 1.0
        assert 0.0 <= report.avg_tv_init <= 1.0

    def test_failed_splits_are_skipped(self, uniform_dataset, monkeypatch):
        # two fits per split: the third and sixth calls fail the second and
        # fourth splits
        monkeypatch.setattr(metrics, "fit", failing_fit(lambda call: call % 3 == 0))
        report = train_test_eval(uniform_dataset, ratio=0.5, replications=4,
                                 rng=0)
        assert (report.replications, report.skipped) == (2, 2)
        monkeypatch.setattr(metrics, "fit", failing_fit(lambda call: True))
        with pytest.raises(NumericalError, match="every split replication failed"):
            train_test_eval(uniform_dataset, ratio=0.5, replications=2, rng=0)

    def test_failure_reasons(self, uniform_dataset, monkeypatch):
        # the third and sixth fits fail the second and fourth splits
        monkeypatch.setattr(metrics, "fit",
                            failing_fit(lambda call: call % 3 == 0, TWO_LINES))
        report = train_test_eval(uniform_dataset, ratio=0.5, replications=4, rng=0)
        assert (report.skipped, report.reasons) == (2, STALLED)
        monkeypatch.setattr(metrics, "fit", failing_fit(lambda call: True, TWO_LINES))
        with pytest.raises(NumericalError) as err:
            train_test_eval(uniform_dataset, ratio=0.5, replications=2, rng=0)
        assert str(err.value) == ("every split replication failed; "
                                  "most often NumericalError: solver stalled (2 times)")

    def test_clean_splits_have_no_reasons(self, uniform_dataset):
        report = train_test_eval(uniform_dataset, ratio=0.5, replications=1, rng=0)
        assert (report.skipped, report.reasons) == (0, Counter())

    def test_scoring_error_propagates(self, uniform_dataset, monkeypatch):
        def breaking(*args):
            raise ValidationError("scoring broke")

        monkeypatch.setattr(metrics, "tv_distance", breaking)
        with pytest.raises(ValidationError, match="^scoring broke$"):
            train_test_eval(uniform_dataset, ratio=0.5, replications=2, rng=0)

    def test_bad_ratio_rejected(self, uniform_dataset):
        with pytest.raises(ValidationError):
            train_test_eval(uniform_dataset, ratio=1.5, replications=1,
                            rng=0)

    @pytest.mark.parametrize("ratio", [0.001, 0.999])
    def test_split_leaving_a_side_empty_rejected(self, uniform_dataset, ratio):
        with pytest.raises(ValidationError, match="empty train or test set"):
            train_test_eval(uniform_dataset, ratio=ratio, replications=1, rng=0)

    @pytest.mark.parametrize("replications", [0, -3])
    def test_replication_count_below_one_rejected(self, uniform_dataset,
                                                  replications):
        with pytest.raises(ValidationError, match="replication"):
            train_test_eval(uniform_dataset, ratio=0.5,
                            replications=replications, rng=0)
