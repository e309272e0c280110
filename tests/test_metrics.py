"""Distance computations between CDF estimates and the replication
harnesses built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondprice import (MonotoneCurve, ValidationError,
                         ValuationDistribution, ks_distance, replicate_table,
                         train_test_eval, tv_distance, write_report_csv)


def pl(knots, values):
    return MonotoneCurve(np.asarray(knots, float), np.asarray(values, float),
                         kind="pl")


class TestKS:
    def test_identical_curves(self):
        c = pl([0.0, 1.0, 2.0], [0.0, 0.4, 1.0])
        assert ks_distance(c, c) == 0.0

    def test_known_value(self):
        # F1 rises over [0, 1]; F2 rises over [0, 2]; gap peaks at x=1
        f1 = pl([0.0, 1.0], [0.0, 1.0])
        f2 = pl([0.0, 2.0], [0.0, 1.0])
        assert ks_distance(f1, f2) == pytest.approx(0.5)

    def test_step_left_limits_count(self):
        # unit mass at 1 versus unit mass at 2: the gap just below 2 is 1
        f1 = MonotoneCurve([1.0], [1.0], kind="step")
        f2 = MonotoneCurve([2.0], [1.0], kind="step")
        assert ks_distance(f1, f2) == pytest.approx(1.0)

    def test_terminal_gap_counts(self):
        # a defective estimate never reaching 1 versus a full CDF
        f1 = pl([0.0, 1.0], [0.0, 0.7])
        f2 = pl([0.0, 1.0], [0.0, 1.0])
        assert ks_distance(f1, f2) == pytest.approx(0.3)

    def test_against_analytic(self):
        dist = ValuationDistribution.uniform(0.0, 2.0)
        est = pl([0.0, 1.0], [0.0, 1.0])
        assert ks_distance(est, dist) == pytest.approx(0.5, abs=1e-6)
        exact = pl([0.0, 2.0], [0.0, 1.0])
        assert ks_distance(exact, dist) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        f1 = pl([0.0, 1.0, 3.0], [0.0, 0.6, 1.0])
        f2 = pl([0.0, 2.0], [0.1, 1.0])
        assert ks_distance(f1, f2) == ks_distance(f2, f1)


class TestTV:
    def test_identical_curves(self):
        c = pl([0.0, 1.0, 2.0], [0.0, 0.4, 1.0])
        assert tv_distance(c, c) == 0.0

    def test_disjoint_supports(self):
        f1 = pl([0.0, 1.0], [0.0, 1.0])
        f2 = pl([2.0, 3.0], [0.0, 1.0])
        assert tv_distance(f1, f2) == pytest.approx(1.0)

    def test_known_value(self):
        # densities 1 vs 1/2 on [0,1], 0 vs 1/2 on [1,2]
        f1 = pl([0.0, 1.0], [0.0, 1.0])
        f2 = pl([0.0, 2.0], [0.0, 1.0])
        assert tv_distance(f1, f2) == pytest.approx(0.5)

    def test_against_analytic(self):
        dist = ValuationDistribution.uniform(0.0, 2.0)
        est = pl([0.0, 1.0], [0.0, 1.0])
        assert tv_distance(est, dist) == pytest.approx(0.5, abs=1e-4)
        exact = pl([0.0, 2.0], [0.0, 1.0])
        assert tv_distance(exact, dist) == pytest.approx(0.0, abs=1e-4)

    def test_rejects_step_curves(self):
        step = MonotoneCurve([1.0], [1.0], kind="step")
        with pytest.raises(ValidationError):
            tv_distance(step, pl([0.0, 1.0], [0.0, 1.0]))

    def test_symmetry(self):
        f1 = pl([0.0, 1.0, 3.0], [0.0, 0.6, 1.0])
        f2 = pl([0.0, 2.0], [0.1, 1.0])
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
            return pl(knots, values)

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
