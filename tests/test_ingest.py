"""Tests for the online ingestion simulator (Section 4 + Appendix M)."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecast import BIN_S
from repro.sim.cluster import make_cluster
from repro.sim.ingest import (
    RunResult,
    SegmentQueue,
    build_placement_tables,
    multiplier_grid,
    prepare,
    run_skyscraper,
)
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.test_golden_decisions import TEST_DAYS, TRAIN_DAYS, artifact


class TestSegmentQueue:
    def mk(self, n=100, seg_len=2.0, seg_bytes=100.0, buffer_bytes=500.0):
        return SegmentQueue(seg_len, np.full(n, seg_bytes), buffer_bytes)

    def test_realtime_processing_no_backlog(self):
        q = self.mk()
        for i in range(100):
            q.step(i, 1.0)  # faster than the 2 s arrival rate
        assert q.peak == 0.0
        assert not q.overflowed

    def test_lag_accumulates(self):
        q = self.mk(buffer_bytes=1e9)
        for i in range(100):
            q.step(i, 3.0)  # 1.5x slower than real time
        assert q.peak > 0.0
        # at 1.5x real time, ~1/3 of the stream is still unprocessed when
        # the last segment arrives -> peak ~ 34 segments of backlog
        assert q.peak == pytest.approx(34 * 100.0, rel=0.1)

    def test_overflow_detected(self):
        q = self.mk(buffer_bytes=300.0)  # 3 segments
        for i in range(100):
            q.step(i, 4.0)
        assert q.overflowed

    def test_would_overflow_predicts(self):
        q = self.mk(buffer_bytes=300.0)
        assert not q.would_overflow(0, 1.0)
        assert q.would_overflow(0, 1000.0)

    def test_headroom_tightens(self):
        q = self.mk(buffer_bytes=1000.0)
        rt = 14.0  # backlog after this ~ 6 segments = 600 bytes
        assert not q.would_overflow(0, rt, headroom=1.0)
        assert q.would_overflow(0, rt, headroom=0.3)

    def test_catch_up_drains(self):
        q = self.mk(n=200, buffer_bytes=1e9)
        for i in range(100):
            q.step(i, 3.0)
        peak_mid = q.peak
        for i in range(100, 200):
            q.step(i, 0.5)
        # backlog at the end is zero: ready caught up with arrivals
        assert q.ready <= 201 * 2.0 + 1e-9
        assert q.peak == peak_mid  # peak not exceeded while draining


class ReferenceQueue:
    """The buffer accounting as one backlog formula, evaluated per call:
    the definition ``SegmentQueue``'s precomputed fast path keeps."""

    def __init__(self, seg_len, seg_bytes, buffer_bytes):
        self.seg_len = seg_len
        self.n = len(seg_bytes)
        self.cum = np.concatenate([[0.0], np.cumsum(seg_bytes)])
        self.buffer_bytes = buffer_bytes
        self.ready = 0.0
        self.peak = 0.0
        self.overflowed = False

    def backlog_bytes(self, i, finish):
        captured = min(self.n, int(math.floor(finish / self.seg_len)))
        if captured <= i + 1:
            return 0.0
        return self.cum[captured] - self.cum[i + 1]

    def would_overflow(self, i, runtime, headroom=1.0):
        start = max((i + 1) * self.seg_len, self.ready)
        return (
            self.backlog_bytes(i, start + runtime)
            > headroom * self.buffer_bytes
        )

    def step(self, i, runtime):
        start = max((i + 1) * self.seg_len, self.ready)
        finish = start + runtime
        backlog = self.backlog_bytes(i, finish)
        if backlog > self.buffer_bytes + 1e-6:
            self.overflowed = True
        self.peak = max(self.peak, backlog)
        self.ready = finish
        return finish


# segment sizes: zeros (plateaus in the cumulative sum), MOSEI-like
# bitrate x integer stream counts, and floats with full mantissas (whose
# sums and differences round)
seg_size = st.one_of(
    st.just(0.0),
    st.integers(1, 62).map(lambda m: 17_500.0 * m),
    st.integers(1, 10**9).map(lambda m: m / 7919.0),
    st.floats(0.0, 1e5),
)
# one segment's runtime: free, or ending on a capture boundary (up to a
# few segments past the last one) or one ulp either side of it
runtime = st.one_of(
    st.tuples(st.just("free"), st.floats(0.0, 6.0), st.just(0)),
    st.tuples(st.just("boundary"), st.integers(-2, 45),
              st.sampled_from([-1, 0, 1])),
)
# the buffer: none, some segments' worth, unbounded, or exactly the bytes
# of segments [a, b), so a backlog can equal the capacity to the bit
buffer = st.one_of(
    st.tuples(st.just("segments"), st.floats(0.0, 12.0), st.just(0)),
    st.tuples(st.just("inf"), st.just(math.inf), st.just(0)),
    st.tuples(st.just("exact"), st.integers(0, 40), st.integers(0, 40)),
)


@settings(max_examples=150, deadline=None)
@given(
    seg_len=st.sampled_from([2.0, 7.0, 0.3, 1 / 3]),
    seg_bytes=st.lists(seg_size, min_size=1, max_size=30),
    buffer=buffer,
    headroom=st.floats(0.05, 1.5),
    plan=st.lists(st.tuples(runtime, st.floats(0.0, 3.0), st.booleans()),
                  min_size=30, max_size=30),
)
def test_queue_equals_reference_formula(seg_len, seg_bytes, buffer,
                                        headroom, plan):
    """``would_overflow`` at every capture boundary (and one ulp either
    side) up to two segments past the last, then ``step``: the same
    answers, peak, overflow flag and ready time as the formula."""
    n = len(seg_bytes)
    kind, x, y = buffer
    if kind == "exact":
        cum = np.concatenate([[0.0], np.cumsum(seg_bytes)])
        a, b = sorted((min(x, n), min(y, n)))
        buffer_bytes = float(cum[b] - cum[a])
    else:
        buffer_bytes = x * 350_000.0
    fast = SegmentQueue(seg_len, np.array(seg_bytes), buffer_bytes)
    ref = ReferenceQueue(seg_len, np.array(seg_bytes), buffer_bytes)

    def runtime_to(i, finish):
        return max(0.0, float(finish) - max((i + 1) * seg_len, ref.ready))

    for i in range(n):
        (kind, value, ulps), delay, delayed = plan[i]
        if delayed:  # a profiling pass delays the queue, as Chameleon's
            fast.ready += delay * seg_len
            ref.ready += delay * seg_len
        for c in range(i + 1, n + 3):
            f = c * seg_len
            for finish in (np.nextafter(f, -math.inf), f,
                           np.nextafter(f, math.inf)):
                rt = runtime_to(i, finish)
                for h in (1.0, 0.9, headroom):
                    assert fast.would_overflow(i, rt, headroom=h) == \
                        ref.would_overflow(i, rt, headroom=h), (i, rt, h)
        if kind == "free":
            rt = value * seg_len
        else:  # finish at capture count i + 1 + value, nudged by ulps
            finish = (i + 1 + value) * seg_len
            rt = runtime_to(i, np.nextafter(finish, math.inf * ulps)
                            if ulps else finish)
        assert fast.step(i, rt) == ref.step(i, rt)
        assert (fast.peak, fast.overflowed, fast.ready) == \
            (ref.peak, ref.overflowed, ref.ready)


@settings(max_examples=60, deadline=None)
@given(
    seg_len=st.sampled_from([2.0, 7.0, 0.3]),
    seg_bytes=st.lists(seg_size, min_size=1, max_size=24),
)
def test_queue_capacity_equal_to_a_backlog(seg_len, seg_bytes):
    """A buffer of exactly the bytes of segments [a, b), probed on
    segment a - 1 finishing at capture b (and one ulp either side): the
    case where ``cum[b] - cum[a] > capacity`` and ``cum[b] > cum[a] +
    capacity`` can round apart."""
    n = len(seg_bytes)
    cum = np.concatenate([[0.0], np.cumsum(seg_bytes)])
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            buffer_bytes = float(cum[b] - cum[a])
            fast = SegmentQueue(seg_len, np.array(seg_bytes), buffer_bytes)
            ref = ReferenceQueue(seg_len, np.array(seg_bytes), buffer_bytes)
            f = b * seg_len
            for finish in (np.nextafter(f, -math.inf), f,
                           np.nextafter(f, math.inf)):
                rt = max(0.0, float(finish) - a * seg_len)
                assert fast.would_overflow(a - 1, rt) == \
                    ref.would_overflow(a - 1, rt), (a, b, rt)


class TestPlacementTables:
    def test_tables_shapes(self, covid, covid_fit, cluster8):
        tr = covid.content(seed=0, n_days=0.01)
        grid, idx = multiplier_grid(tr)
        tables = build_placement_tables(covid, covid_fit.configs, cluster8, grid)
        assert len(tables) == len(covid_fit.configs)
        for t in tables:
            assert t.runtime.shape == t.cloud_usd.shape
            assert t.runtime.shape[1] == len(grid)
            assert (t.runtime > 0).all()
            assert (t.cloud_usd >= 0).all()
            # sorted by cloud cost at the smallest multiplier
            assert list(t.cloud_usd[:, 0]) == sorted(t.cloud_usd[:, 0])

    def test_enable_cloud_false_keeps_only_onprem(self, covid, covid_fit, cluster8):
        tr = covid.content(seed=0, n_days=0.01)
        grid, _ = multiplier_grid(tr)
        tables = build_placement_tables(
            covid, covid_fit.configs, cluster8, grid, enable_cloud=False
        )
        for t in tables:
            assert t.runtime.shape == (1, len(grid))
            assert (t.cloud_usd == 0.0).all()

    def test_multiplier_grid(self, mosei_high):
        tr = mosei_high.content(seed=0, n_days=0.1)
        grid, idx = multiplier_grid(tr)
        assert (grid >= 1).all()
        np.testing.assert_array_equal(
            grid[idx], np.clip(np.round(tr.work_multiplier), 1, None)
        )


class TestPrepare:
    def test_shapes(self, covid, covid_fit):
        tr = covid.content(seed=0, n_days=0.02)
        prep = prepare(covid, covid_fit.configs, tr, seed=0)
        k, n = len(covid_fit.configs), tr.n_segments
        assert prep.qual_true.shape == (k, n)
        assert prep.qual_obs.shape == (k, n)
        assert prep.qual_best.shape == (n,)

    def test_best_quality_is_ceiling(self, covid, covid_fit):
        tr = covid.content(seed=0, n_days=0.02)
        prep = prepare(covid, covid_fit.configs, tr, seed=0)
        assert (prep.qual_true <= prep.qual_best[None, :] + 1e-9).all()

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_curves_equal_per_curve_methods(self, name):
        """One kernel pass gives both curves, bit for bit as the
        ground-truth and reported-quality methods compute them."""
        wl = get_workload(name)
        tr = wl.content(seed=3, n_days=0.05, start_day=1.0)
        configs = wl.all_configs()[:: max(1, len(wl.all_configs()) // 12)]
        prep = prepare(wl, configs, tr, seed=3)
        np.testing.assert_array_equal(
            prep.qual_true, wl.quality_curves(configs, tr)
        )
        np.testing.assert_array_equal(
            prep.qual_obs,
            wl.observed_quality(
                configs, tr.difficulty, tr.global_ids(), seed=3,
                mult=tr.work_multiplier,
            ),
        )


@pytest.fixture(scope="module")
def sky_run(covid, covid_fit, cluster4):
    test = covid.content(seed=0, n_days=0.25, start_day=2.0)
    return run_skyscraper(
        covid, covid_fit, cluster4, test,
        cloud_budget_usd_per_day=0.5, seed=0,
    )


class TestRunSkyscraper:
    def test_no_overflow(self, sky_run):
        assert not sky_run.overflow

    def test_quality_bounds(self, sky_run):
        assert 0.0 < sky_run.quality_pct <= 100.0

    def test_costs_accounted(self, sky_run, cluster4):
        assert sky_run.onprem_usd == pytest.approx(
            cluster4.onprem_cost(sky_run.duration_days * 86400.0)
        )
        assert sky_run.total_usd == pytest.approx(
            sky_run.onprem_usd + sky_run.cloud_usd
        )
        assert sky_run.cloud_usd >= 0.0

    def test_cloud_budget_respected(self, sky_run):
        assert sky_run.cloud_usd <= 0.5 * sky_run.duration_days + 1e-6

    def test_accuracy_metrics_present(self, sky_run):
        assert 0.0 <= sky_run.switch_accuracy <= 1.0
        assert 0.0 <= sky_run.switch_accuracy_no_typeb <= 1.0

    def test_row_carries_every_field(self, sky_run):
        assert set(sky_run.to_row()) == {
            f.name for f in dataclasses.fields(RunResult)
        }

    def test_switches_happen(self, sky_run):
        assert sky_run.n_switches > 10

    def test_deterministic(self, covid, covid_fit, cluster4, sky_run):
        test = covid.content(seed=0, n_days=0.25, start_day=2.0)
        again = run_skyscraper(
            covid, covid_fit, cluster4, test,
            cloud_budget_usd_per_day=0.5, seed=0,
        )
        assert again.quality_pct == pytest.approx(sky_run.quality_pct)
        assert again.cloud_usd == pytest.approx(sky_run.cloud_usd)

    def test_more_cores_better_quality(self, covid, covid_fit):
        test = covid.content(seed=0, n_days=0.25, start_day=2.0)
        qs = []
        for v in (4, 60):
            r = run_skyscraper(
                covid, covid_fit, make_cluster(v), test,
                cloud_budget_usd_per_day=0.0, seed=0,
            )
            qs.append(r.quality_pct)
        assert qs[1] > qs[0]

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_zero_cloud_budget_spends_nothing(self, name):
        """A zero budget profiles only on-premises placements, so no
        pick spends, the switcher's forced one included."""
        wl = get_workload(name)
        test = wl.content(seed=0, n_days=TEST_DAYS, start_day=TRAIN_DAYS)
        r = run_skyscraper(
            wl, artifact((name, 0, TRAIN_DAYS, None)), make_cluster(4), test,
            cloud_budget_usd_per_day=0.0, seed=0,
        )
        assert r.cloud_usd == 0.0
        assert r.cloud_core_s == 0.0

    def test_no_typeb_at_least_as_accurate(self, covid, covid_fit, cluster4):
        test = covid.content(seed=0, n_days=0.25, start_day=2.0)
        r = run_skyscraper(
            covid, covid_fit, cluster4, test,
            cloud_budget_usd_per_day=0.0, seed=0,
        )
        # removing the timing mismatch (Type-B errors) must improve
        # classification accuracy (Section 5.6)
        assert r.switch_accuracy_no_typeb >= r.switch_accuracy - 0.02

    def test_mosei_run_works(self, mosei_high, mosei_fit):
        test = mosei_high.content(seed=0, n_days=0.2, start_day=2.0)
        r = run_skyscraper(
            mosei_high, mosei_fit, make_cluster(16), test,
            cloud_budget_usd_per_day=1.0, seed=0,
        )
        assert 0 < r.quality_pct <= 100
        assert not r.overflow

    def test_replans_read_bounded_label_history(
        self, covid, covid_fit, cluster4, monkeypatch
    ):
        """Each replan gets one normalized histogram per complete
        15-minute label bin so far, at most the last 4 x in_bins."""
        from repro.sim import ingest

        seen = []
        make_plan = ingest.make_plan

        def record(fitted, hists, *a, **kw):
            seen.append(hists)
            return make_plan(fitted, hists, *a, **kw)

        monkeypatch.setattr(ingest, "make_plan", record)
        test = covid.content(seed=0, n_days=1.5, start_day=2.0)
        run_skyscraper(
            covid, covid_fit, cluster4, test,
            cloud_budget_usd_per_day=0.0, seed=0,
        )
        horizon = 4 * covid_fit.spec.in_bins
        spec = covid_fit.spec
        bins_per_plan = int(round(spec.out_days * 86400.0 / BIN_S))
        assert seen[0] is covid_fit.train_hists
        assert [len(h) for h in seen[1:]] == [
            min(j * bins_per_plan, horizon) for j in range(1, 6)
        ]
        assert len(seen[-1]) == horizon
        for h in seen[1:]:
            assert h.shape[1] == covid_fit.categories.n
            np.testing.assert_allclose(h.sum(axis=1), 1.0)
