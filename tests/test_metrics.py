"""Distance computations between CDF estimates and the replication
harnesses built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (MonotoneCurve, ValidationError,
                         ValuationDistribution, ks_distance, replicate_table,
                         train_test_eval, tv_distance, write_report_csv)


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

    def test_bad_ratio_rejected(self, uniform_dataset):
        with pytest.raises(ValidationError):
            train_test_eval(uniform_dataset, ratio=1.5, replications=1,
                            rng=0)

    @pytest.mark.parametrize("replications", [0, -3])
    def test_replication_count_below_one_rejected(self, uniform_dataset,
                                                  replications):
        with pytest.raises(ValidationError, match="replication"):
            train_test_eval(uniform_dataset, ratio=0.5,
                            replications=replications, rng=0)
