"""Tests for the offline fit artifact, the knob planner, and the knob
switcher (Sections 3 and 4)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import Categories
from repro.core.planner import (
    ONPREM_UTILIZATION,
    compute_budget_per_vs,
    forecast_ratios,
    make_plan,
)
from repro.core.switcher import KnobSwitcher
from repro.sim.cluster import make_cluster


class TestFitted:
    def test_configs_sorted_by_work(self, covid, covid_fit):
        works = [covid.work_per_vs(c) for c in covid_fit.configs]
        assert works == sorted(works)
        np.testing.assert_allclose(covid_fit.work, works)

    def test_timings_recorded(self, covid_fit):
        assert set(covid_fit.timings) == {
            "filter_knob_configs",
            "filter_task_placements",
            "compute_content_categories",
            "create_forecast_training_data",
            "train_forecast_model",
        }
        assert all(v >= 0 for v in covid_fit.timings.values())

    def test_default_horizon_is_an_eighth_of_training(self, covid_fit):
        """2 training days give a quarter-day horizon, so the fit has
        forecast training pairs and a forecaster."""
        assert covid_fit.spec.out_days == covid_fit.spec.in_days == 0.25
        assert covid_fit.forecaster is not None

    def test_horizon_without_training_pairs_raises(self, covid):
        from repro.core.fit import fit_skyscraper

        with pytest.raises(ValueError, match="no forecast training pair"):
            fit_skyscraper(covid, seed=0, train_days=2.0, plan_days=2.0,
                           in_days=2.0, sample_frac=0.01)

    def test_default_category_counts(self, covid, mosei_high):
        from repro.core.fit import default_n_categories

        assert default_n_categories(covid) == 3
        assert default_n_categories(mosei_high) == 5

    def test_quality_rank_valid_permutation(self, covid_fit):
        n_k = len(covid_fit.configs)
        sw = KnobSwitcher(covid_fit.categories, [[0.0]] * n_k)
        assert sorted(sw.quality_rank) == list(range(n_k))

    def test_label_config_is_discriminator(self, covid_fit):
        spreads = covid_fit.categories.centers.std(axis=0)
        assert spreads[covid_fit.k_label_idx] >= 0.5 * spreads.max()

    def test_train_hists_are_distributions(self, covid_fit):
        np.testing.assert_allclose(
            covid_fit.train_hists.sum(axis=1), 1.0, atol=1e-9
        )

    def test_k_minus_is_cheapest(self, covid, covid_fit):
        """The switcher starts on configs[0], which must be k-."""
        assert covid_fit.configs[0] == min(
            covid_fit.configs, key=covid.work_per_vs
        )


class TestPlanner:
    def test_budget_conversion(self):
        cl = make_cluster(8)
        onprem = 8 * ONPREM_UTILIZATION
        b0 = compute_budget_per_vs(cl, interval_s=3600.0, cloud_budget_usd=0.0)
        assert b0 == pytest.approx(onprem)
        b1 = compute_budget_per_vs(cl, interval_s=3600.0, cloud_budget_usd=1.0)
        assert b1 > onprem
        extra = (b1 - onprem) * 3600.0 * cl.cloud_usd_per_core_s
        assert extra == pytest.approx(1.0)

    def test_default_budget_reserves_drain_slack(self):
        cl = make_cluster(8)
        b = compute_budget_per_vs(cl, interval_s=3600.0, cloud_budget_usd=0.0)
        assert b < cl.n_cores

    def test_forecast_ratios_sum_to_one(self, covid_fit):
        r = forecast_ratios(covid_fit, covid_fit.train_hists)
        assert r.sum() == pytest.approx(1.0)
        assert (r >= 0).all()

    def test_fallback_without_forecaster(self, covid_fit):
        import dataclasses

        nofc = dataclasses.replace(covid_fit, forecaster=None)
        hists = covid_fit.train_hists[:10]
        r = forecast_ratios(nofc, hists)
        np.testing.assert_allclose(r, hists.mean(axis=0) / hists.mean(axis=0).sum())

    def test_plan_budget_and_shape(self, covid_fit):
        cl = make_cluster(8)
        plan = make_plan(
            covid_fit,
            covid_fit.train_hists,
            cl,
            interval_s=86400.0,
            cloud_budget_usd=0.5,
        )
        assert plan.alpha.shape == (
            len(covid_fit.configs),
            covid_fit.categories.n,
        )
        np.testing.assert_allclose(plan.alpha.sum(axis=0), 1.0)
        assert plan.lp.cost <= plan.budget_per_vs + 1e-6

    def test_bigger_machine_gets_better_plan(self, covid_fit):
        q = []
        for v in (4, 60):
            plan = make_plan(
                covid_fit,
                covid_fit.train_hists,
                make_cluster(v),
                interval_s=86400.0,
                cloud_budget_usd=0.0,
            )
            q.append(plan.lp.quality)
        assert q[1] >= q[0]

    def test_plan_ratios_are_forecast(self, covid_fit):
        plan = make_plan(
            covid_fit,
            covid_fit.train_hists,
            make_cluster(8),
            interval_s=86400.0,
            cloud_budget_usd=0.0,
        )
        np.testing.assert_array_equal(
            plan.ratios, forecast_ratios(covid_fit, covid_fit.train_hists)
        )


def make_switcher(n_k=3, n_c=2):
    centers = np.array([[0.1 * (k + 1) for k in range(n_k)],
                        [0.3 * (k + 1) for k in range(n_k)]])[:n_c]
    cats = Categories(centers=np.array(centers))
    # placement 0 on premises, placement 1 on the cloud (faster)
    runtimes = [[1.0 * (k + 1), 0.5 * (k + 1)] for k in range(n_k)]
    return KnobSwitcher(cats, runtimes)


class TestSwitcher:
    def test_rank_and_start_derived(self):
        sw = make_switcher()
        # mean center quality rises with the index: best quality first
        assert sw.quality_rank == [2, 1, 0]
        assert sw.k_cur == 0  # the cheapest configuration

    def test_set_plan_resets_counts(self):
        sw = make_switcher()
        for c in (0, 1, 1):
            sw.choose(c, lambda k, p: True)
        assert sw.counts.shape == (3, 2)
        assert sw.counts.sum(axis=0).tolist() == [1.0, 2.0]
        sw.set_plan(np.full((3, 2), 1 / 3))
        assert sw.counts.sum() == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_set_plan_rejects_non_finite(self, bad):
        sw = make_switcher()
        alpha = np.full((3, 2), 1 / 3)
        alpha[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sw.set_plan(alpha)

    def test_set_plan_accepts_lp_round_off(self):
        sw = make_switcher()
        alpha = np.array([[-1e-12, 0.5], [1.0, 0.5], [1e-12, 0.0]])
        sw.set_plan(alpha)
        assert sw.pick_config(0) == 1

    def test_set_plan_shape_validated(self):
        sw = make_switcher()
        with pytest.raises(ValueError):
            sw.set_plan(np.ones((2, 2)))

    def test_pick_config_follows_plan_frequencies(self):
        sw = make_switcher()
        alpha = np.array([[0.5, 0.0], [0.25, 0.0], [0.25, 1.0]])
        sw.set_plan(alpha)
        picks = []
        for _ in range(200):
            k, _ = sw.choose(0, lambda k, p: True)
            picks.append(k)
        freq = np.bincount(picks, minlength=3) / 200
        np.testing.assert_allclose(freq, alpha[:, 0], atol=0.02)

    def test_classify_eq5(self):
        sw = make_switcher()
        sw.k_cur = 1
        # centers column 1: [0.2, 0.6] -> quality 0.55 is closer to 0.6
        assert sw.classify(0.55) == 1
        assert sw.classify(0.25) == 0

    def test_fallback_on_infeasible(self):
        sw = make_switcher()
        sw.set_plan(np.array([[0.0, 0], [0.0, 0], [1.0, 1]]))
        # config 2 infeasible entirely -> fall back to config 1
        k, p = sw.choose(0, lambda k, p: k != 2)
        assert k == 1

    def test_cheapest_placement_preferred(self):
        sw = make_switcher()
        sw.set_plan(np.array([[1.0, 1], [0, 0], [0, 0]]))
        k, p = sw.choose(0, lambda k, p: True)
        assert p == 0  # on-prem placement scanned first

    def test_cloud_placement_when_onprem_infeasible(self):
        sw = make_switcher()
        sw.set_plan(np.array([[1.0, 1], [0, 0], [0, 0]]))
        k, p = sw.choose(0, lambda k, p: p == 1)
        assert k == 0 and p == 1

    def test_total_infeasible_forces_last_rank(self):
        sw = make_switcher()
        k, p = sw.choose(0, lambda k, p: False)
        assert k == sw.quality_rank[-1]
        assert p == 1  # the fastest placement

    def test_fallback_order_starts_at_desired(self):
        sw = make_switcher()
        order = sw.fallback_order(1)
        assert order[0] == 1
        # only less-qualitative configs follow
        assert order == [1, 0]


# Reference equality: the switcher's plain-float steps against the array
# expressions they replace.  Centers and plans are drawn from small
# fractions so that ties (duplicate centers, equal distances, deficits of
# exactly zero) are frequent.
grid_floats = st.tuples(st.integers(0, 12), st.integers(1, 12)).map(
    lambda t: min(t) / t[1]
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n_c: st.tuples(
            st.lists(
                st.lists(grid_floats | st.floats(0.0, 1.0),
                         min_size=3, max_size=3),
                min_size=n_c, max_size=n_c,
            ),
            st.integers(min_value=0, max_value=2),
            st.sampled_from(["center", "midpoint", "free"]),
            st.floats(-0.5, 1.5),
            st.integers(min_value=0, max_value=n_c - 1),
            st.integers(min_value=0, max_value=n_c - 1),
        )
    )
)
def test_classify_equals_classify_1d(case):
    centers, k, where, free_q, a, b = case
    cats = Categories(centers=np.array(centers))
    col = cats.centers[:, k]
    q = {"center": col[a], "midpoint": (col[a] + col[b]) / 2,
         "free": free_q}[where]
    sw = KnobSwitcher(cats, [[1.0]] * 3)
    sw.k_cur = k
    assert sw.classify(float(q)) == int(cats.classify_1d(k, q)[0])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n_k: st.tuples(
            st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3),
                     min_size=n_k, max_size=n_k),
            st.lists(st.lists(grid_floats, min_size=3, max_size=3),
                     min_size=n_k, max_size=n_k),
            st.booleans(),
        )
    )
)
def test_pick_config_equals_argmax_deficit(case):
    """Eq. 6 against ``argmax(alpha[:, c] - counts[:, c] / total)``.
    With ``realized``, the plan equals the realized frequencies, so every
    deficit is zero up to how it is rounded."""
    count_rows, alpha_rows, realized = case
    n_k = len(count_rows)
    counts = np.array(count_rows, dtype=float)
    total = counts.sum(axis=0)
    if realized:
        alpha = np.divide(counts, total, out=np.zeros_like(counts),
                          where=total > 0)
    else:
        alpha = np.array(alpha_rows)
    cats = Categories(centers=np.tile(np.arange(n_k, dtype=float), (3, 1)))
    sw = KnobSwitcher(cats, [[1.0]] * n_k)
    sw.set_plan(alpha)
    for (k, c), m in np.ndenumerate(counts):
        for _ in range(int(m)):
            sw._record(k, c)  # the usage bookkeeping of choose
    np.testing.assert_array_equal(sw.counts, counts)
    for c in range(3):
        hat = counts[:, c] / total[c] if total[c] > 0 else np.zeros(n_k)
        assert sw.pick_config(c) == int(np.argmax(alpha[:, c] - hat))
