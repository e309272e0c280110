"""The fit does not depend on the units of price or time, nor on the
order of the auctions: scaling every price by c gives F(x / c), scaling
every wait and tau by c gives lambda / c and the same F, and permuting
the auctions changes nothing."""

import numpy as np
import pytest

from secondprice import ObservedDataset, SimConfig, ValuationDistribution, fit, run_study

DISTS = {"uniform": ValuationDistribution.uniform(1.0, 20.0),
         "gamma": ValuationDistribution.gamma(10.0, 2.0),
         "pareto": ValuationDistribution.pareto(1.0, 3.0)}


def scaled(ds, price=1.0, time=1.0):
    return ObservedDataset.from_arrays(ds.reserve * price, ds.sold, ds.m, ds.price * price,
                                       ds.wait * time, ds.tau * time)


@pytest.fixture(scope="module", params=[(kind, tau, seed) for kind in DISTS
                                        for tau in (100.0, 3.5) for seed in range(2)],
                ids=lambda p: f"{p[0]}-tau{p[1]}-seed{p[2]}")
def dataset(request):
    kind, tau, seed = request.param
    return run_study(SimConfig(lam=1.0, tau=tau, K=300, seed=seed), DISTS[kind])


@pytest.mark.parametrize("constrained", [True, False])
def test_price_and_time_units(dataset, constrained):
    ref = fit(dataset, constrained=constrained)
    for c in (2.0, 3.0):
        res = fit(scaled(dataset, price=c), constrained=constrained)
        assert res.lambda_hat == ref.lambda_hat
        if c == 2.0:        # a power of two scales every value exactly
            assert np.array_equal(res.cdf.knots, c * ref.cdf.knots)
            assert np.array_equal(res.cdf.values, ref.cdf.values)
        else:
            assert np.allclose(res.cdf.knots, c * ref.cdf.knots, rtol=1e-12, atol=0.0)
            assert np.allclose(res.cdf.values, ref.cdf.values, rtol=0.0, atol=1e-12)
    for c in (2.0, 0.7):
        res = fit(scaled(dataset, time=c), constrained=constrained)
        assert np.array_equal(res.cdf.knots, ref.cdf.knots)
        if c == 2.0:
            assert res.lambda_hat == ref.lambda_hat / c
            assert np.array_equal(res.cdf.values, ref.cdf.values)
        else:
            assert res.lambda_hat == pytest.approx(ref.lambda_hat / c, rel=1e-12)
            assert np.allclose(res.cdf.values, ref.cdf.values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("constrained", [True, False])
def test_auction_order(dataset, constrained):
    ref = fit(dataset, constrained=constrained)
    perm = np.random.default_rng(0).permutation(dataset.K)
    res = fit(dataset.take(perm), constrained=constrained)
    assert res.lambda_hat == ref.lambda_hat
    assert np.array_equal(res.cdf.knots, ref.cdf.knots)
    assert np.array_equal(res.cdf.values, ref.cdf.values)
