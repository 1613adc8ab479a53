"""Tests for the workload models (knobs, cost, quality, task graphs)."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.content import hash_normal
from repro.workloads import ALL_WORKLOADS, get_workload


@pytest.fixture(params=ALL_WORKLOADS, scope="module")
def wl(request):
    return get_workload(request.param)


def soft_quality(cap, difficulty, *, tau=0.09, floor=0.35):
    """Reference formula, one configuration at a time: per-dimension
    floored sigmoid of (capability - difficulty) / tau, multiplied over
    the dimensions.  cap: (D,); difficulty: (n, D); returns (n,)."""
    z = (cap[None, :] - difficulty) / tau
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
    return (floor + (1.0 - floor) * s).prod(axis=1)


def accuracy(wl, cfg, tr):
    """Noiseless mass-free accuracy of one configuration, in [0, 1]."""
    return wl.base_quality(cfg) * soft_quality(
        wl.capability(cfg), tr.difficulty, tau=wl.tau, floor=wl.quality_floor
    )


def observed(wl, configs, tr, *, seed):
    """Reported quality of ``configs`` over every segment of ``tr``."""
    return wl.observed_quality(
        configs, tr.difficulty, tr.global_ids(), seed=seed,
        mult=tr.work_multiplier,
    )


class TestRegistry:
    def test_all_workloads_instantiable(self):
        for name in ALL_WORKLOADS:
            assert get_workload(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_mosei_spike_validation(self):
        from repro.workloads.mosei import MoseiWorkload

        with pytest.raises(ValueError):
            MoseiWorkload("weird")


class TestKnobDomains:
    """Knob domains must match the paper verbatim (Section 5.2/App. J)."""

    def test_covid_knobs(self):
        wl = get_workload("covid")
        knobs = {k.name: k.domain for k in wl.knobs}
        assert knobs["fps"] == (30, 15, 10, 5, 1)
        assert knobs["det_interval"] == (1, 5, 30, 60)
        assert knobs["tiles"] == (1, 4)

    def test_mot_knobs(self):
        wl = get_workload("mot")
        knobs = {k.name: k.domain for k in wl.knobs}
        assert knobs["frame_stride"] == (1, 5, 30, 60)
        assert knobs["tiles"] == (1, 4)
        assert knobs["history"] == (1, 2, 3, 5)
        assert knobs["model_size"] == ("small", "medium", "large")

    def test_mosei_knobs(self):
        wl = get_workload("mosei-high")
        knobs = {k.name: k.domain for k in wl.knobs}
        assert knobs["skip_sentences"] == (0, 1, 2, 3, 4, 5, 6)
        assert len(knobs["frame_frac"]) == 6
        assert knobs["model_size"] == ("small", "medium", "large")
        assert len(knobs["stream_frac"]) == 4

    def test_config_counts(self):
        assert len(get_workload("covid").all_configs()) == 5 * 4 * 2
        assert len(get_workload("mot").all_configs()) == 4 * 2 * 4 * 3
        assert len(get_workload("mosei-high").all_configs()) == 7 * 6 * 3 * 4


class TestCostModel:
    def test_work_positive(self, wl):
        for cfg in wl.all_configs():
            assert wl.work_per_vs(cfg) > 0

    def test_cheapest_and_best_are_extremes(self, wl):
        works = [wl.work_per_vs(c) for c in wl.all_configs()]
        assert wl.work_per_vs(wl.cheapest_config()) == min(works)
        assert wl.work_per_vs(wl.best_config()) >= np.median(works)

    def test_work_range_spans_machines(self, wl):
        """The most expensive config must exceed a 32-core machine and
        the cheapest must run on a fraction of a core (DESIGN.md §5)."""
        w_max = max(wl.work_per_vs(c) for c in wl.all_configs())
        w_min = min(wl.work_per_vs(c) for c in wl.all_configs())
        if wl.name.startswith("mosei"):
            w_max *= 62  # peak concurrent streams
            w_min *= 1
        assert w_max > 32
        assert w_min < 1

    def test_config_dict_roundtrip(self, wl):
        cfg = wl.all_configs()[0]
        d = wl.config_dict(cfg)
        assert tuple(d[k.name] for k in wl.knobs) == cfg


class TestQualityModel:
    def test_capability_bounds(self, wl):
        for cfg in wl.all_configs():
            cap = wl.capability(cfg)
            assert cap.shape == (len(wl.dims),)
            assert (cap >= 0).all() and (cap <= 1.001).all()

    def test_soft_quality_monotone_in_capability(self):
        d = np.array([[0.5, 0.5]])
        lo = soft_quality(np.array([0.3, 0.3]), d)
        hi = soft_quality(np.array([0.9, 0.9]), d)
        assert hi > lo

    def test_soft_quality_bounds(self):
        d = np.random.default_rng(0).random((100, 3))
        q = soft_quality(np.array([0.5, 0.5, 0.5]), d)
        assert (q > 0).all() and (q <= 1).all()

    def test_accuracy_in_unit_interval(self, wl):
        tr = wl.content(seed=0, n_days=0.02)
        for cfg in (wl.cheapest_config(), wl.best_config()):
            acc = accuracy(wl, cfg, tr)
            assert (acc >= 0).all() and (acc <= 1).all()

    def test_best_config_dominates_cheapest(self, wl):
        tr = wl.content(seed=0, n_days=0.1)
        q_best = accuracy(wl, wl.best_config(), tr).mean()
        q_cheap = accuracy(wl, wl.cheapest_config(), tr).mean()
        assert q_best > q_cheap

    def test_quality_includes_mass(self, wl):
        tr = wl.content(seed=0, n_days=0.02)
        cfg = wl.best_config()
        np.testing.assert_allclose(
            wl.quality_curves([cfg], tr)[0],
            wl.mass(tr.difficulty, tr.work_multiplier) * accuracy(wl, cfg, tr),
        )

    def test_observed_quality_noise_determinism(self, wl):
        tr = wl.content(seed=0, n_days=0.02)
        cfg = wl.best_config()
        a = observed(wl, [cfg], tr, seed=1)
        b = observed(wl, [cfg], tr, seed=1)
        np.testing.assert_array_equal(a, b)
        c = observed(wl, [cfg], tr, seed=2)
        assert not np.allclose(a, c)

    def test_observed_quality_slice_invariant(self, wl):
        """Noise must not depend on how the trace is sliced (Spark
        partitioning invariance)."""
        tr = wl.content(seed=0, n_days=0.02)
        cfg = wl.cheapest_config()
        full = observed(wl, [cfg], tr, seed=0)
        part = observed(wl, [cfg], tr.slice(100, 200), seed=0)
        np.testing.assert_allclose(full[:, 100:200], part)

    def test_noise_key_differs_per_config(self, wl):
        cfgs = wl.all_configs()
        keys = {wl.noise_key(c, 0) for c in cfgs}
        assert len(keys) == len(cfgs)


class TestQualityKernel:
    """``accuracy_rows`` shares factor columns between configurations;
    ground truth and reported quality built on it must still equal the
    per-configuration formulas bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(ALL_WORKLOADS),
        seed=st.integers(0, 2**16),
        start_day=st.floats(0.0, 16.0),
        data=st.data(),
    )
    def test_rows_equal_per_config_formula(self, name, seed, start_day, data):
        wl = get_workload(name)
        every = wl.all_configs()
        picked = data.draw(
            st.lists(
                st.integers(0, len(every) - 1),
                min_size=1,
                max_size=60,
                unique=True,
            )
        )
        configs = [every[k] for k in picked]
        tr = wl.content(seed=seed, n_days=0.005, start_day=start_day)
        mass = wl.mass(tr.difficulty, tr.work_multiplier)
        ref = np.stack([mass * accuracy(wl, c, tr) for c in configs])

        got = wl.quality_curves(configs, tr)
        assert np.array_equal(got, ref)
        means = wl.mean_quality(configs, tr)
        assert all(means[i] == ref[i].mean() for i in range(len(configs)))
        perm = data.draw(st.permutations(range(len(configs))))
        assert np.array_equal(
            wl.quality_curves([configs[p] for p in perm], tr), got[perm]
        )

        ids = tr.global_ids()
        reported = np.stack(
            [
                mass
                * np.clip(
                    accuracy(wl, c, tr)
                    + wl.quality_noise
                    * hash_normal(wl.noise_key(c, seed), ids),
                    0.0,
                    1.0,
                )
                for c in configs
            ]
        )
        got = wl.observed_quality(
            configs, tr.difficulty, ids, seed=seed, mult=tr.work_multiplier
        )
        assert np.array_equal(got, reported)

    @staticmethod
    def check_against_per_config(wl, tr):
        """``mean_quality`` equals ``(mass * acc).mean()`` and
        ``quality_curves`` the per-configuration rows, bit for bit."""
        every = wl.all_configs()
        configs = every[:: max(1, len(every) // 48)]
        mass = wl.mass(tr.difficulty, tr.work_multiplier)
        means = wl.mean_quality(configs, tr)
        curves = wl.quality_curves(configs, tr)
        for i, c in enumerate(configs):
            ref = mass * accuracy(wl, c, tr)
            assert np.array_equal(curves[i], ref)
            assert means[i] == ref.mean()

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    @pytest.mark.parametrize("n", [5, 8191, 8192, 8193, 3 * 8192 + 17])
    def test_block_edges(self, name, n):
        """numpy sums 1-D float64 arrays in chunks of ``np.getbufsize()``
        (8192 by default) elements and the kernel walks blocks of that
        many rows: traces one short of, on and one past a block edge, and
        several blocks long."""
        wl = get_workload(name)
        self.check_against_per_config(wl, wl.segments(seed=3, gid0=777, n=n))

    def test_under_another_reduction_buffer(self):
        """With a smaller reduction buffer numpy's chunks and the kernel's
        blocks shrink together; if numpy stops chunking its sums by the
        buffer, this fails instead of the means drifting silently."""
        wl = get_workload("mot")
        default = np.getbufsize()
        np.setbufsize(1024)
        try:
            assert np.getbufsize() == 1024
            tr = wl.segments(seed=4, gid0=0, n=24 * 1024 + 17)
            self.check_against_per_config(wl, tr)
        finally:
            np.setbufsize(default)

    @pytest.mark.parametrize("name", ["covid", "mot", "mosei-high"])
    def test_memory_is_a_few_columns(self, name):
        """Ranking every configuration holds O(D) columns at a time: no
        (K, n) matrix and no cache of every factor column."""
        wl = get_workload(name)
        tr = wl.content(seed=0, n_days=2.0)
        configs = wl.all_configs()
        tracemalloc.start()
        try:
            wl.mean_quality(configs, tr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * tr.n_segments * 8


class TestMass:
    def test_mass_positive(self, wl):
        tr = wl.content(seed=0, n_days=0.02)
        m = wl.mass(tr.difficulty, tr.work_multiplier)
        assert (m > 0).all()

    def test_covid_mass_grows_with_crowding(self):
        wl = get_workload("covid")
        d = np.zeros((2, 3))
        d[1, 0] = 0.9
        m = wl.mass(d)
        assert m[1] > m[0]

    def test_mosei_mass_is_stream_count(self):
        wl = get_workload("mosei-high")
        d = np.zeros((3, 2))
        m = wl.mass(d, np.array([5.0, 20.0, 62.0]))
        np.testing.assert_array_equal(m, [5.0, 20.0, 62.0])


class TestTaskGraphs:
    def test_graph_valid_dag(self, wl):
        for cfg in [wl.cheapest_config(), wl.best_config()]:
            g = wl.task_graph(cfg)
            assert len(g.nodes) >= 3
            for a, b in g.edges:
                assert a < b

    def test_first_node_pinned(self, wl):
        g = wl.task_graph(wl.best_config())
        assert g.nodes[0].pin_onprem

    def test_graph_work_tracks_cost_model(self, wl):
        """Total on-premise seconds of the graph ~= work_per_vs * seg_len."""
        for cfg in [wl.cheapest_config(), wl.best_config()]:
            g = wl.task_graph(cfg)
            expected = wl.work_per_vs(cfg) * wl.seg_len
            assert g.total_onprem_s == pytest.approx(expected, rel=0.35)

    def test_widths_positive(self, wl):
        for cfg in wl.all_configs()[:20]:
            g = wl.task_graph(cfg)
            for nd in g.nodes:
                assert nd.width >= 1
                assert nd.onprem_s >= 0
                assert nd.cloud_s >= 0

    def test_invalid_edges_rejected(self):
        from repro.workloads.base import TaskGraph, TaskNode

        n = TaskNode("x", 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TaskGraph((n, n), ((1, 0),))
        with pytest.raises(ValueError):
            TaskGraph((n,), ((0, 3),))
