"""Section 5.5 / Figure 13: decision overheads of switcher and planner.

The paper's headline numbers: the knob switcher decides in well under a
millisecond on one CPU core, and the knob planner (forecast forward pass
+ LP solve) completes in under a second.  These benchmarks measure our
implementations of exactly those decision paths.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.mckp import solve_knob_plan
from repro.core.planner import make_plan
from repro.core.switcher import KnobSwitcher
from repro.sim.ingest import build_placement_tables, multiplier_grid


@pytest.fixture(scope="module")
def switcher(covid_wl, covid_fitted, bench_cluster):
    tr = covid_wl.content(seed=0, n_days=0.01)
    grid, _ = multiplier_grid(tr)
    tables = build_placement_tables(
        covid_wl, covid_fitted.configs, bench_cluster, grid
    )
    sw = KnobSwitcher(
        covid_fitted.categories, [t.runtime[:, 0].tolist() for t in tables]
    )
    rng = np.random.default_rng(0)
    alpha = rng.random((len(covid_fitted.configs), covid_fitted.categories.n))
    alpha /= alpha.sum(axis=0, keepdims=True)
    sw.set_plan(alpha)
    return sw


def test_knob_switcher_decision_under_1ms(benchmark, switcher):
    """Classify + Eq. 6 pick + placement scan: the paper reports < 1 ms."""

    def decide():
        c = switcher.classify(0.57)
        return switcher.choose(c, lambda k, p: True)

    benchmark(decide)
    assert benchmark.stats.stats.mean < 1e-3


def test_knob_switcher_worst_case_full_scan(benchmark, switcher):
    """Worst case: every placement of every configuration is scanned."""

    def decide():
        c = switcher.classify(0.57)
        return switcher.choose(c, lambda k, p: False)

    benchmark(decide)
    assert benchmark.stats.stats.mean < 5e-3


def test_knob_planner_under_1s(benchmark, covid_fitted, bench_cluster):
    """Forecast forward pass + LP solve: the paper reports < 1 s."""

    def plan():
        return make_plan(
            covid_fitted,
            covid_fitted.train_hists,
            bench_cluster,
            interval_s=2 * 86400.0,
            cloud_budget_usd=1.0,
        )

    benchmark(plan)
    assert benchmark.stats.stats.mean < 1.0


def test_lp_solver_scales_to_large_problems(benchmark):
    """Figure 13 right: planner overhead across (|C|, |K|) sizes — the
    largest heat-map cell (~100 categories x 100 configurations)."""
    rng = np.random.default_rng(0)
    qual = rng.random((100, 100))
    cost = np.sort(rng.random(100) * 50)
    ratios = np.full(100, 0.01)

    benchmark(lambda: solve_knob_plan(qual, cost, ratios, budget=10.0))
    assert benchmark.stats.stats.mean < 1.0
