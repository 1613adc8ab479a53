"""Tests for the synthetic content process (repro.video.content)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.content import (
    SECONDS_PER_DAY,
    SPIKE_HEIGHT,
    ContentParams,
    ContentTrace,
    diurnal_profile,
    generate,
    hash_normal,
    segment_range,
    stream_count_trace,
)
from repro.workloads import ALL_WORKLOADS, get_workload


def simple_params(**over) -> ContentParams:
    kw = dict(
        dims=("a", "b"),
        base=(0.1, 0.2),
        diurnal_amp=(0.4, 0.2),
        diurnal_peaks=((12.0, 2.0, 1.0),),
        seg_len=2.0,
    )
    kw.update(over)
    return ContentParams(**kw)


def days(p: ContentParams, *, seed: int, n_days: float,
         start_day: float = 0.0) -> ContentTrace:
    """``generate`` over the segments covering a window of days."""
    gid0, n = segment_range(p.seg_len, n_days, start_day)
    return generate(p, seed=seed, gid0=gid0, n=n)


class TestHashNormal:
    def test_deterministic(self):
        ids = np.arange(1000)
        a = hash_normal(42, ids)
        b = hash_normal(42, ids)
        np.testing.assert_array_equal(a, b)

    def test_key_changes_values(self):
        ids = np.arange(1000)
        assert not np.allclose(hash_normal(1, ids), hash_normal(2, ids))

    def test_slice_invariant(self):
        ids = np.arange(1000)
        full = hash_normal(7, ids)
        part = hash_normal(7, ids[300:400])
        np.testing.assert_array_equal(full[300:400], part)

    def test_approximately_standard_normal(self):
        x = hash_normal(3, np.arange(200_000))
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_no_extreme_correlation(self):
        x = hash_normal(5, np.arange(100_000))
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r) < 0.02

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.integers(min_value=0, max_value=2**62),
        lo=st.integers(min_value=-10, max_value=2**50),
        n=st.integers(min_value=0, max_value=3000),
        spread=st.booleans(),
    )
    def test_matches_reference_expression(self, key, lo, n, spread):
        """The in-place mixing is bit-identical to the plain expression."""
        ids = lo + np.arange(n) * (7919 if spread else 1)
        got = hash_normal(key, ids)
        want = hash_normal_reference(key, ids)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_peak_memory_about_three_columns(self):
        import tracemalloc

        ids = np.arange(200_000)
        hash_normal(1, ids[:10])  # warm up outside the measurement
        tracemalloc.start()
        try:
            hash_normal(9, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * ids.nbytes


def hash_normal_reference(key: int, ids: np.ndarray) -> np.ndarray:
    """splitmix64 + Box-Muller written as one expression per step, with
    a fresh array for each: the definition the in-place code keeps."""
    def mix(x: np.ndarray) -> np.ndarray:
        z = x.copy()
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    with np.errstate(over="ignore"):
        base = np.asarray(ids, dtype=np.uint64) + np.uint64(
            (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        )
        h1 = mix(base)
        h2 = mix(base + np.uint64(0x632BE59BD9B4E019))
    u1 = (h1 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u2 = (h2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u1 = np.clip(u1, 1e-12, 1.0)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class TestDiurnalProfile:
    def test_peak_normalized(self):
        hours = np.linspace(0, 24, 2000)
        prof = diurnal_profile(hours, ((12.0, 2.0, 1.0),))
        assert prof.max() == pytest.approx(1.0, abs=1e-4)
        assert prof.min() >= 0.0

    def test_peak_location(self):
        hours = np.linspace(0, 24, 2401)
        prof = diurnal_profile(hours, ((8.0, 1.0, 1.0),))
        assert hours[prof.argmax()] == pytest.approx(8.0, abs=0.05)

    def test_circular_wraparound(self):
        hours = np.array([0.0, 23.9, 0.1])
        prof = diurnal_profile(hours, ((0.0, 1.0, 1.0),))
        assert prof[1] == pytest.approx(prof[2], abs=0.02)

    def test_multiple_peaks_superpose(self):
        hours = np.linspace(0, 24, 1000)
        p1 = diurnal_profile(hours, ((6.0, 1.0, 1.0),))
        p2 = diurnal_profile(hours, ((6.0, 1.0, 1.0), (18.0, 1.0, 1.0)))
        assert p2[hours > 15].max() > p1[hours > 15].max()


class TestGenerate:
    def test_shapes_and_bounds(self):
        tr = days(simple_params(), seed=0, n_days=0.1)
        assert tr.difficulty.shape == (4320, 2)
        assert tr.difficulty.min() >= 0.0
        assert tr.difficulty.max() <= 1.0

    def test_deterministic(self):
        a = days(simple_params(), seed=1, n_days=0.05)
        b = days(simple_params(), seed=1, n_days=0.05)
        np.testing.assert_array_equal(a.difficulty, b.difficulty)

    def test_seed_matters(self):
        a = days(simple_params(), seed=1, n_days=0.05)
        b = days(simple_params(), seed=2, n_days=0.05)
        assert not np.allclose(a.difficulty, b.difficulty)

    def test_window_invariance(self):
        p = simple_params()
        full = days(p, seed=5, n_days=2.0)
        w1 = days(p, seed=5, n_days=1.0)
        w2 = days(p, seed=5, n_days=1.0, start_day=1.0)
        joined = np.vstack([w1.difficulty, w2.difficulty])
        np.testing.assert_allclose(joined, full.difficulty, atol=1e-9)

    def test_gid0_snaps_to_grid(self):
        p = simple_params(seg_len=7.0)
        tr = days(p, seed=0, n_days=0.5, start_day=1.0)
        assert tr.gid0 == round(SECONDS_PER_DAY / 7.0)

    def test_diurnal_signal_present(self):
        p = simple_params(noise_sigma=0.0, burst_rate_per_hour=0.0,
                          drift_sigma=1e-6)
        tr = days(p, seed=0, n_days=1.0)
        hours = (np.arange(tr.n_segments) * 2.0 / 3600.0) % 24
        noon = tr.difficulty[(hours > 11) & (hours < 13), 0].mean()
        night = tr.difficulty[(hours > 2) & (hours < 4), 0].mean()
        assert noon > night + 0.2

    def test_bursts_raise_difficulty(self):
        quiet = days(
            simple_params(burst_rate_per_hour=0.0), seed=3, n_days=0.25
        )
        bursty = days(
            simple_params(burst_rate_per_hour=60.0), seed=3, n_days=0.25
        )
        assert bursty.difficulty[:, 0].mean() > quiet.difficulty[:, 0].mean()

    def test_drift_varies_across_days(self):
        p = simple_params(noise_sigma=0.0, burst_rate_per_hour=0.0,
                          drift_sigma=0.2, drift_rho=0.3)
        tr = days(p, seed=11, n_days=6.0)
        per_day = tr.difficulty[:, 0].reshape(6, -1).mean(axis=1)
        assert per_day.std() > 0.01

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ContentParams(
                dims=("a", "b"),
                base=(0.1,),
                diurnal_amp=(0.1, 0.1),
                diurnal_peaks=(),
            )


class TestContentTrace:
    def test_slice_consistency(self):
        tr = days(simple_params(), seed=0, n_days=0.1)
        sub = tr.slice(100, 200)
        assert sub.n_segments == 100
        np.testing.assert_array_equal(
            sub.difficulty, tr.difficulty[100:200]
        )
        np.testing.assert_array_equal(
            sub.global_ids(), tr.global_ids()[100:200]
        )

    def test_times_and_duration(self):
        tr = days(simple_params(), seed=0, n_days=0.25)
        t = tr.times_s()
        assert t[0] == 0.0
        assert t[1] - t[0] == tr.seg_len
        assert tr.duration_days == pytest.approx(0.25)

    def test_default_multiplier_is_one(self):
        tr = days(simple_params(), seed=0, n_days=0.01)
        np.testing.assert_array_equal(
            tr.work_multiplier, np.ones(tr.n_segments)
        )


class TestStreamCount:
    def test_bounds_and_integrality(self):
        n = stream_count_trace(seed=0, gid0=0, n_segments=10000, seg_len=7.0)
        assert n.min() >= 1.0
        np.testing.assert_array_equal(n, np.round(n))

    def test_high_spikes_reach_62(self):
        n = stream_count_trace(
            seed=0, gid0=0, n_segments=5 * 12343, seg_len=7.0, spike="high"
        )
        assert n.max() >= 60.0

    def test_long_peak_sustained(self):
        n = stream_count_trace(
            seed=0, gid0=0, n_segments=2 * 12343, seg_len=7.0, spike="long"
        )
        # a >= 8h stretch at the long-peak height
        at_peak = n >= 44
        assert at_peak.sum() * 7.0 > 7.5 * 3600

    def test_no_spike_stays_moderate(self):
        n = stream_count_trace(seed=0, gid0=0, n_segments=12343, seg_len=7.0)
        assert n.max() <= 35

    def test_unknown_spike_rejected(self):
        with pytest.raises(ValueError):
            stream_count_trace(
                seed=0, gid0=0, n_segments=10, seg_len=7.0, spike="bogus"
            )

    def test_window_invariance(self):
        full = stream_count_trace(
            seed=4, gid0=0, n_segments=2 * 12343, seg_len=7.0, spike="high"
        )
        w1 = stream_count_trace(
            seed=4, gid0=0, n_segments=12343, seg_len=7.0, spike="high"
        )
        w2 = stream_count_trace(
            seed=4, gid0=12343, n_segments=12343, seg_len=7.0, spike="high"
        )
        np.testing.assert_array_equal(np.concatenate([w1, w2]), full)

    def test_spike_spills_past_midnight(self):
        # seed 0 draws a spike at 86,399.2 s into day 29: its six minutes
        # run into day 30, so a window opening on day 30 starts inside it
        g29, n = segment_range(7.0, 2.0, 29.0)
        g30, _ = segment_range(7.0, 1.0, 30.0)
        full = stream_count_trace(
            seed=0, gid0=g29, n_segments=n, seg_len=7.0, spike="high"
        )
        win = stream_count_trace(
            seed=0, gid0=g30, n_segments=n - (g30 - g29), seg_len=7.0,
            spike="high",
        )
        np.testing.assert_array_equal(win, full[g30 - g29:])
        assert win[0] >= SPIKE_HEIGHT - 2


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_traces_deterministic(name):
    wl = get_workload(name)
    a = wl.content(seed=9, n_days=0.05)
    b = wl.content(seed=9, n_days=0.05)
    np.testing.assert_array_equal(a.difficulty, b.difficulty)
    np.testing.assert_array_equal(a.work_multiplier, b.work_multiplier)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_workload_trace_window_invariance(name):
    wl = get_workload(name)
    full = wl.content(seed=2, n_days=2.0)
    w1 = wl.content(seed=2, n_days=1.0)
    w2 = wl.content(seed=2, n_days=1.0, start_day=1.0)
    joined = np.vstack([w1.difficulty, w2.difficulty])
    n = len(joined)
    np.testing.assert_array_equal(joined, full.difficulty[:n])
    np.testing.assert_array_equal(
        np.concatenate([w1.work_multiplier, w2.work_multiplier]),
        full.work_multiplier[:n],
    )
    np.testing.assert_array_equal(
        np.concatenate([w1.times_s(), w2.times_s()]), full.times_s()[:n]
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ALL_WORKLOADS),
    seed=st.integers(0, 2**16),
    gid0=st.integers(0, 40 * 43_200),
    n=st.integers(2, 2_000),
    data=st.data(),
)
def test_segment_ranges_concatenate(name, seed, gid0, n, data):
    """Content does not depend on how a segment range is cut: two
    adjacent ranges concatenated equal one call over their union."""
    wl = get_workload(name)
    cut = data.draw(st.integers(gid0 + 1, gid0 + n - 1))
    whole = wl.segments(seed=seed, gid0=gid0, n=n)
    parts = [
        wl.segments(seed=seed, gid0=gid0, n=cut - gid0),
        wl.segments(seed=seed, gid0=cut, n=gid0 + n - cut),
    ]
    np.testing.assert_array_equal(
        np.vstack([p.difficulty for p in parts]), whole.difficulty
    )
    np.testing.assert_array_equal(
        np.concatenate([p.work_multiplier for p in parts]),
        whole.work_multiplier,
    )
    for method in ("global_ids", "times_s"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(p, method)() for p in parts]),
            getattr(whole, method)(),
        )
