"""Shared fixtures: a moderately sized synthetic dataset and its fit."""

import pytest

from secondprice import SimConfig, ValuationDistribution, fit, run_study


@pytest.fixture(scope="session")
def uniform_dataset():
    return run_study(SimConfig(lam=1.0, tau=100.0, K=100, seed=123),
                     ValuationDistribution.uniform(1.0, 20.0))


@pytest.fixture(scope="session")
def uniform_fit(uniform_dataset):
    return fit(uniform_dataset)
