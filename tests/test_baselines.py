"""Tests for the Static / Chameleon* / VideoStorm* / Optimum baselines."""
from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines import chameleon
from repro.baselines.chameleon import run_chameleon
from repro.baselines.optimum import optimum_choices, run_optimum
from repro.baselines.static import best_static_config, run_static
from repro.baselines.videostorm import run_videostorm
from repro.exp.paper_numbers import PAPER_TABLE2_ROWS
from repro.exp.runs import CLOUD_BUDGET_PER_VCPU_DAY
from repro.sim.cluster import make_cluster
from repro.sim.dagsim import simulate_placement
from repro.sim.ingest import prepare, run_skyscraper
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.test_golden_decisions import TEST_DAYS, TRAIN_DAYS, artifact


@functools.lru_cache(maxsize=None)
def window_runs(name: str, vcpus: int, buffer_bytes: float) -> dict:
    """Method -> ``RunResult`` of all five methods on the golden
    fixture's window of ``name`` (seed 0, 2 train days, 0.25 test days),
    each as ``run_one`` runs it, on ``vcpus`` cores and ``buffer_bytes``
    of buffer."""
    wl = get_workload(name)
    cluster = make_cluster(vcpus, buffer_bytes=buffer_bytes)
    test = wl.content(seed=0, n_days=TEST_DAYS, start_day=TRAIN_DAYS)
    fit = artifact((name, 0, TRAIN_DAYS, None))
    side = artifact((name, 0, TRAIN_DAYS))
    return {
        "skyscraper": run_skyscraper(
            wl, fit, cluster, test,
            cloud_budget_usd_per_day=CLOUD_BUDGET_PER_VCPU_DAY * vcpus,
        ),
        "static": run_static(
            wl, cluster, test, None, config=side.static_config(cluster)
        ),
        "chameleon": run_chameleon(
            wl, cluster, test, None, configs=side.configs
        ),
        "videostorm": run_videostorm(
            wl, cluster, test, None, configs=side.configs,
            mean_q=side.mean_q,
        ),
        "optimum": run_optimum(wl, cluster, test, side.configs),
    }


@pytest.mark.parametrize("buffer_bytes", [4e9, 6e7])
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_overflow_is_peak_over_buffer(name, buffer_bytes):
    """Every method's row flags an overflow exactly when its buffer peak
    exceeds the cluster's buffer: ``buffer_peak <= buffer`` whenever
    ``overflow`` is false, and a flagged overflow shows in the peak."""
    for method, r in window_runs(name, 4, buffer_bytes).items():
        assert r.overflow == (r.buffer_peak_bytes > buffer_bytes + 1e-6), (
            method, r.buffer_peak_bytes)


@pytest.fixture(scope="module")
def covid_data(covid):
    train = covid.content(seed=0, n_days=0.5)
    test = covid.content(seed=0, n_days=0.25, start_day=0.5)
    return train, test


@pytest.fixture(scope="module")
def covid_fit_mid(covid):
    """Mid-size fit for end-to-end ordering tests (full diurnal cycles)."""
    from repro.core.fit import fit_skyscraper

    return fit_skyscraper(
        covid, seed=0, train_days=4.0, plan_days=1.0, in_days=1.0,
        sample_frac=0.02,
    )


class TestStatic:
    def test_feasible_config(self, covid, covid_data):
        train, _ = covid_data
        for v in (4, 60):
            cfg = best_static_config(covid, make_cluster(v), train)
            peak = np.quantile(train.work_multiplier, 0.999)
            assert covid.work_per_vs(cfg) * peak <= v

    def test_bigger_machine_better_config(self, covid, covid_data):
        train, _ = covid_data
        w4 = covid.work_per_vs(best_static_config(covid, make_cluster(4), train))
        w60 = covid.work_per_vs(best_static_config(covid, make_cluster(60), train))
        assert w60 >= w4

    def test_run_static(self, covid, covid_data):
        train, test = covid_data
        res = run_static(covid, make_cluster(8), test, train, seed=0)
        assert res.method == "static"
        assert res.cloud_usd == 0.0
        assert res.n_switches == 0
        assert not res.overflow

    def test_explicit_config(self, covid, covid_data):
        train, test = covid_data
        cfg = covid.cheapest_config()
        res = run_static(covid, make_cluster(8), test, train, seed=0, config=cfg)
        # COVID's work multiplier is 1, so every segment costs cfg's work
        assert res.work_core_s == pytest.approx(
            covid.work_per_vs(cfg) * test.n_segments * covid.seg_len
        )

    def test_quality_increases_with_machine(self, covid, covid_data):
        train, test = covid_data
        qs = [
            run_static(covid, make_cluster(v), test, train, seed=0).quality_pct
            for v in (4, 60)
        ]
        assert qs[1] > qs[0]

    @pytest.mark.parametrize(
        "workload, vcpus",
        [(w, v) for w, m, _, v, _, _ in PAPER_TABLE2_ROWS if m == "static"],
    )
    def test_matches_per_config_ranking(self, workload, vcpus):
        """The Table-2 Static choice equals ranking every feasible
        configuration by its own quality curve, one at a time."""
        wl = get_workload(workload)
        cluster = make_cluster(vcpus)
        train = wl.content(seed=0, n_days=1.0)

        peak_mult = float(np.quantile(train.work_multiplier, 0.999))
        feasible = []
        for c in wl.all_configs():
            if wl.work_per_vs(c) * peak_mult > cluster.n_cores:
                continue
            g = wl.task_graph(c)
            runtime = simulate_placement(
                g, (False,) * len(g.nodes), cluster, mult=peak_mult
            ).runtime_s
            if runtime <= wl.seg_len:
                feasible.append(c)
        if feasible:
            mean_q = {
                c: float(wl.quality_curves([c], train)[0].mean())
                for c in feasible
            }
            want = max(feasible, key=lambda c: (mean_q[c], -wl.work_per_vs(c)))
        else:
            want = wl.cheapest_config()

        assert best_static_config(wl, cluster, train) == want


class TestChameleon:
    def test_profiling_overhead_positive(self, covid, covid_data, monkeypatch):
        """Profiling work delays the queue: the default run peaks above
        a run that profiles only once, at segment 0."""
        train, test = covid_data
        res = run_chameleon(covid, make_cluster(8), test, train, seed=0)
        monkeypatch.setattr(chameleon, "PROFILE_EVERY_S", 1e9)
        once = run_chameleon(covid, make_cluster(8), test, train, seed=0)
        assert res.buffer_peak_bytes > once.buffer_peak_bytes

    def test_switches(self, covid):
        train = covid.content(seed=0, n_days=1.0)
        test = covid.content(seed=0, n_days=1.0, start_day=2.0)
        res = run_chameleon(covid, make_cluster(8), test, train, seed=0)
        assert res.n_switches > 0
        assert res.cloud_usd == 0.0

    def test_no_throughput_guarantee(self, covid, covid_fit_mid):
        """Chameleon*'s unmanaged buffer overflows under load while
        Skyscraper's V-ETL guarantee holds (Section 5.3; at short test
        scales Chameleon* can even buy quality with those overflows —
        the full-duration Table 2 runs show Skyscraper ahead outright)."""
        train = covid.content(seed=0, n_days=4.0)
        test = covid.content(seed=0, n_days=2.0, start_day=4.0)
        cl = make_cluster(4)
        cham = run_chameleon(covid, cl, test, train, seed=0)
        sky = run_skyscraper(
            covid, covid_fit_mid, cl, test,
            cloud_budget_usd_per_day=0.4, seed=0,
        )
        assert not sky.overflow
        assert cham.overflow

    def test_beaten_by_skyscraper(self, mosei_high, mosei_fit):
        """Core paper claim (Section 5.3): Skyscraper dominates
        Chameleon* at equal hardware — clearest on MOSEI, where
        Chameleon*'s profiling overhead (re-running every candidate
        configuration) is largest."""
        train = mosei_high.content(seed=0, n_days=2.0)
        test = mosei_high.content(seed=0, n_days=1.0, start_day=2.0)
        cl = make_cluster(4)
        cham = run_chameleon(mosei_high, cl, test, train, seed=0)
        sky = run_skyscraper(
            mosei_high, mosei_fit, cl, test,
            cloud_budget_usd_per_day=0.4, seed=0,
        )
        assert sky.quality_pct > cham.quality_pct
        assert not sky.overflow


class TestVideoStorm:
    def test_content_agnostic_run(self, covid, covid_data):
        train, test = covid_data
        res = run_videostorm(covid, make_cluster(8), test, train, seed=0)
        assert res.method == "videostorm"
        assert 0 < res.quality_pct <= 100

    def test_fills_buffer_early(self, covid):
        """Appendix G: VideoStorm burns buffer greedily."""
        train = covid.content(seed=0, n_days=1.0)
        test = covid.content(seed=0, n_days=1.0, start_day=2.0)
        res = run_videostorm(covid, make_cluster(4), test, train, seed=0)
        assert res.buffer_peak_bytes > 0.5 * make_cluster(4).buffer_bytes


class TestOptimum:
    def test_budget_respected(self, covid, covid_fit, covid_data):
        _, test = covid_data
        prep = prepare(covid, covid_fit.configs, test, seed=0)
        budget = 4.0 * test.n_segments * covid.seg_len
        chosen = optimum_choices(prep, budget)
        seg = covid.seg_len
        spent = (
            prep.work[chosen] * seg * test.work_multiplier
        ).sum()
        assert spent <= budget * 1.01

    def test_unconstrained_picks_best_everywhere(self, covid, covid_fit, covid_data):
        _, test = covid_data
        prep = prepare(covid, covid_fit.configs, test, seed=0)
        chosen = optimum_choices(prep, budget_core_s=1e12)
        per_seg_best = prep.qual_true.argmax(axis=0)
        np.testing.assert_array_equal(chosen, per_seg_best)

    def test_quality_monotone_in_budget(self, covid, covid_fit, covid_data):
        _, test = covid_data
        prep = prepare(covid, covid_fit.configs, test, seed=0)
        seg = covid.seg_len
        quals = []
        for cores in (1, 4, 16, 64):
            chosen = optimum_choices(prep, cores * test.n_segments * seg)
            quals.append(prep.qual_true[chosen, np.arange(len(chosen))].sum())
        assert all(a <= b + 1e-9 for a, b in zip(quals, quals[1:]))

    def test_run_optimum_beats_static_at_same_budget(
        self, covid, covid_fit, covid_data
    ):
        """The ground-truth optimum is an upper bound for static's
        work-quality trade-off (Section 5.4, Figures 7-13)."""
        train, test = covid_data
        cl = make_cluster(8)
        static = run_static(covid, cl, test, train, seed=0)
        opt = run_optimum(
            covid, cl, test, covid_fit.configs,
            budget_core_s=static.work_core_s, seed=0,
        )
        assert opt.quality_pct >= static.quality_pct - 0.5

    def test_row_reports_its_buffer(self):
        """The LP ignores the buffer; ``simulate`` replays its choices,
        so the row shows the buffer they need, even past the cluster's."""
        high = window_runs("mosei-high", 4, 4e9)["optimum"]
        assert high.overflow
        assert high.buffer_peak_bytes > 4e9
        covid = window_runs("covid", 8, 4e9)["optimum"]
        assert 0 < covid.buffer_peak_bytes <= 4e9

    def test_skyscraper_close_to_optimum(self, covid, covid_fit):
        """Section 5.4: 'Skyscraper's work reduction performs
        astonishingly close to optimum'."""
        test = covid.content(seed=0, n_days=0.5, start_day=2.0)
        cl = make_cluster(8)
        sky = run_skyscraper(
            covid, covid_fit, cl, test,
            cloud_budget_usd_per_day=0.0, seed=0,
        )
        opt = run_optimum(
            covid, cl, test, covid_fit.configs,
            budget_core_s=sky.work_core_s, seed=0,
        )
        assert sky.quality_pct >= 0.8 * opt.quality_pct
