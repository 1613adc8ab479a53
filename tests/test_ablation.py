"""Section 5.4 ablation shapes: what buffering and cloud bursting each
contribute, and on which spike patterns each one struggles."""
from __future__ import annotations

import pytest

from repro.core.fit import fit_skyscraper
from repro.sim.cluster import make_cluster
from repro.sim.ingest import run_skyscraper
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def covid_ablation(covid):
    fitted = fit_skyscraper(
        covid, seed=0, train_days=4.0, plan_days=1.0, in_days=1.0,
        sample_frac=0.02,
    )
    test = covid.content(seed=0, n_days=1.0, start_day=4.0)
    cl, no_buf = make_cluster(4), make_cluster(4, buffer_bytes=0.0)
    out = {}
    for name, c, budget in [
        ("none", no_buf, 0.0),
        ("only_buffer", cl, 0.0),
        ("only_cloud", no_buf, 1.0),
        ("both", cl, 1.0),
    ]:
        out[name] = run_skyscraper(
            covid, fitted, c, test, cloud_budget_usd_per_day=budget, seed=0
        )
    return out


class TestCovidAblation:
    def test_buffering_helps(self, covid_ablation):
        assert (
            covid_ablation["only_buffer"].quality_pct
            > covid_ablation["none"].quality_pct
        )

    def test_cloud_helps(self, covid_ablation):
        assert (
            covid_ablation["only_cloud"].quality_pct
            > covid_ablation["none"].quality_pct
        )

    def test_both_at_least_each_single(self, covid_ablation):
        both = covid_ablation["both"].quality_pct
        assert both >= covid_ablation["only_buffer"].quality_pct - 0.5
        assert both >= covid_ablation["only_cloud"].quality_pct - 0.5

    def test_no_cloud_variant_spends_nothing(self, covid_ablation):
        assert covid_ablation["only_buffer"].cloud_usd == 0.0
        assert covid_ablation["none"].cloud_usd == 0.0

    def test_no_variant_overflows(self, covid_ablation):
        for r in covid_ablation.values():
            assert not r.overflow


@pytest.fixture(scope="module")
def mosei_ablation():
    """only-buffer / only-cloud / both on the two MOSEI spike patterns."""
    out = {}
    for name in ("mosei-high", "mosei-long"):
        wl = get_workload(name)
        fitted = fit_skyscraper(
            wl, seed=0, train_days=2.0, plan_days=0.5, in_days=0.5,
            sample_frac=0.02,
        )
        test = wl.content(seed=0, n_days=2.0, start_day=2.0)
        cl, no_buf = make_cluster(8), make_cluster(8, buffer_bytes=0.0)
        out[name] = {
            lbl: run_skyscraper(
                wl, fitted, c, test, cloud_budget_usd_per_day=budget, seed=0
            )
            for lbl, c, budget in [
                ("only_buffer", cl, 0.0),
                ("only_cloud", no_buf, 3.0),
                ("both", cl, 3.0),
            ]
        }
    return out


class TestMoseiAblation:
    def test_cloud_bandwidth_bound_on_high(self, mosei_ablation):
        """Section 5.4: Only-cloud performs badly on MOSEI-HIGH because
        the uplink cannot carry the 62-stream spikes."""
        high = mosei_ablation["mosei-high"]
        assert high["only_buffer"].quality_pct > high["only_cloud"].quality_pct

    def test_cloud_helps_long_more_than_high(self, mosei_ablation):
        """Section 5.4: the buffer alone cannot absorb the sustained
        MOSEI-LONG peak, so adding the cloud buys more there than on the
        short HIGH spikes."""
        gain = {
            k: v["both"].quality_pct - v["only_buffer"].quality_pct
            for k, v in mosei_ablation.items()
        }
        assert gain["mosei-long"] > gain["mosei-high"]

    def test_both_dominates_on_both_patterns(self, mosei_ablation):
        for runs in mosei_ablation.values():
            assert (
                runs["both"].quality_pct
                >= max(
                    runs["only_buffer"].quality_pct,
                    runs["only_cloud"].quality_pct,
                )
                - 0.5
            )

    def test_long_spends_cloud_credits(self, mosei_ablation):
        assert mosei_ablation["mosei-long"]["both"].cloud_usd > 0.0
