"""Shared fixtures: tiny fitted artifacts so tests stay fast.

The session-scoped ``spark`` fixture comes from the repo-root conftest.
"""
from __future__ import annotations

import pytest

from repro.core.fit import fit_skyscraper
from repro.sim.cluster import make_cluster
from repro.workloads import get_workload


@pytest.fixture(scope="session")
def covid():
    return get_workload("covid")


@pytest.fixture(scope="session")
def mot():
    return get_workload("mot")


@pytest.fixture(scope="session")
def mosei_high():
    return get_workload("mosei-high")


@pytest.fixture(scope="session")
def mosei_long():
    return get_workload("mosei-long")


@pytest.fixture(scope="session")
def covid_trace(covid):
    """Half a day of COVID content (21 600 segments)."""
    return covid.content(seed=0, n_days=0.5)


@pytest.fixture(scope="session")
def covid_fit(covid):
    """Small offline fit: 2 train days, so the default quarter-day
    planning horizon."""
    return fit_skyscraper(covid, seed=0, train_days=2.0, sample_frac=0.01)


@pytest.fixture(scope="session")
def mosei_fit(mosei_high):
    return fit_skyscraper(mosei_high, seed=0, train_days=2.0, sample_frac=0.01)


@pytest.fixture(scope="session")
def cluster8():
    return make_cluster(8)


@pytest.fixture(scope="session")
def cluster4():
    return make_cluster(4)
