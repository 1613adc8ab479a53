"""Tests for the numpy KMeans implementation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import quality_vectors_numpy, sample_segment_indices
from repro.core.fit import default_n_categories
from repro.core.kmeans import KMeansResult, _nearest, assign, kmeans
from repro.core.offline import filter_knob_configs
from repro.workloads import ALL_WORKLOADS, get_workload


def blobs(seed=0, k=3, n=200, d=2, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.random((k, d)) * 10
    x = np.vstack(
        [c + rng.normal(0, spread, (n, d)) for c in centers]
    )
    labels = np.repeat(np.arange(k), n)
    return x, centers, labels


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        x, true_centers, true_labels = blobs(seed=1)
        res = kmeans(x, 3, seed=0)
        # every found center is close to a true center
        for c in res.centers:
            assert np.linalg.norm(true_centers - c, axis=1).min() < 0.2

    def test_labels_partition_points(self):
        x, _, _ = blobs(seed=2)
        res = kmeans(x, 3, seed=0)
        assert res.labels.shape == (len(x),)
        assert set(res.labels) <= {0, 1, 2}

    def test_deterministic(self):
        x, _, _ = blobs(seed=3)
        a = kmeans(x, 3, seed=7)
        b = kmeans(x, 3, seed=7)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inertia_decreases_with_k(self):
        x, _, _ = blobs(seed=4, k=4)
        inertias = [kmeans(x, k, seed=0).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_equals_one_gives_mean(self):
        x, _, _ = blobs(seed=5)
        res = kmeans(x, 1, seed=0)
        np.testing.assert_allclose(res.centers[0], x.mean(axis=0))

    def test_k_equals_n(self):
        x = np.random.default_rng(0).random((5, 2))
        res = kmeans(x, 5, seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)

    def test_identical_points(self):
        x = np.ones((50, 3))
        res = kmeans(x, 3, seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.ones(5), 2)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 5)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 0)

    def test_assign_matches_fit_labels(self):
        x, _, _ = blobs(seed=6)
        res = kmeans(x, 3, seed=0)
        np.testing.assert_array_equal(assign(x, res.centers), res.labels)

    def test_result_type(self):
        x, _, _ = blobs(seed=7)
        assert isinstance(kmeans(x, 2, seed=0), KMeansResult)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    def test_inertia_is_local_optimum_vs_random_centers(self, k, seed):
        """KMeans inertia must beat random center placement."""
        rng = np.random.default_rng(seed)
        x = rng.random((40, 3))
        res = kmeans(x, k, seed=0)
        rnd = x[rng.choice(len(x), k, replace=False)]
        d2 = ((x[:, None, :] - rnd[None]) ** 2).sum(axis=2).min(axis=1)
        assert res.inertia <= d2.sum() + 1e-9


def frozen_kmeans(x, k, seed):
    """The KMeans that content categories were fitted with before the
    (d, n) kernel, kept verbatim as the bit-identity reference: (n, k, d)
    broadcast distances and a ``mean`` per cluster."""
    rng = np.random.default_rng(seed)
    n = len(x)

    def pp_init():
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[rng.integers(n)]
        d2 = ((x - centers[0]) ** 2).sum(axis=1)
        for i in range(1, k):
            total = d2.sum()
            if total <= 0:
                centers[i:] = centers[0]
                break
            probs = d2 / total
            centers[i] = x[rng.choice(n, p=probs)]
            d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
        return centers

    def lloyd(centers):
        for _ in range(200):
            d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(k):
                mask = labels == j
                if mask.any():
                    new_centers[j] = x[mask].mean(axis=0)
            shift = np.abs(new_centers - centers).max()
            centers = new_centers
            if shift < 1e-7:
                break
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(len(x)), labels].sum())
        return KMeansResult(centers=centers, labels=labels, inertia=inertia)

    best = None
    for _ in range(8):
        res = lloyd(pp_init())
        if best is None or res.inertia < best.inertia:
            best = res
    return best


def spread_data(seed, n, d):
    """(n, d) values whose magnitudes differ by up to 6 decades across
    dimensions, so that adding the d squared terms in another order
    changes the rounded sum."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, d)


class TestSummationOrder:
    """The distance kernel and the fit must round exactly as numpy's own
    expressions do, so a numpy change to its summation order fails here
    instead of silently moving the content categories."""

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 40),
        n=st.integers(1, 300),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_equals_broadcast_expression(self, d, n, k, seed):
        x = spread_data(seed, n, d)
        c = spread_data(seed + 1, k, d)
        ref = ((x[:, None, :] - c[None]) ** 2).sum(axis=2)
        xt = np.ascontiguousarray(x.T)
        buf = np.empty_like(xt)
        for j in range(k):
            assert np.array_equal(_nearest(xt, c[j : j + 1], buf)[1], ref[:, j])
        labels, d2 = _nearest(xt, c, buf)
        assert np.array_equal(labels, ref.argmin(axis=1))
        assert np.array_equal(d2, ref.min(axis=1))
        assert np.array_equal(assign(x, c), ref.argmin(axis=1))
        assert np.array_equal(assign(np.asfortranarray(x), c), labels)

    @pytest.mark.parametrize("d", [129, 136, 300])
    def test_kernel_past_the_pairwise_block(self, d):
        """Beyond 128 terms numpy sums the two halves separately."""
        x, c = spread_data(0, 64, d), spread_data(1, 3, d)
        ref = ((x[:, None, :] - c[None]) ** 2).sum(axis=2)
        xt = np.ascontiguousarray(x.T)
        for j in range(3):
            got = _nearest(xt, c[j : j + 1], np.empty_like(xt))[1]
            assert np.array_equal(got, ref[:, j])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_fit_equals_frozen_kmeans(self, name, seed):
        """Centers, labels and inertia of every workload's fit quality
        vectors (as ``fit_skyscraper`` builds them) equal the frozen
        implementation's exactly."""
        wl = get_workload(name)
        trace = wl.content(seed=seed, n_days=wl.train_days)
        configs = filter_knob_configs(wl, trace, seed=seed)
        idx = sample_segment_indices(trace, sample_frac=0.05, seed=seed)
        q = quality_vectors_numpy(wl, trace, configs, idx, seed=seed)
        k = default_n_categories(wl)
        got, want = kmeans(q, k, seed=seed), frozen_kmeans(q, k, seed)
        assert np.array_equal(got.centers, want.centers)
        assert np.array_equal(got.labels, want.labels)
        assert got.inertia == want.inertia
