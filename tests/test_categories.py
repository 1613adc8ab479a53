"""Tests for content categories (Section 3.2), incl. Spark profiling."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.categories import (
    Categories,
    fit_categories,
    quality_vectors_numpy,
    quality_vectors_spark,
    sample_segment_indices,
)
from repro.core.offline import filter_knob_configs
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def setup():
    wl = get_workload("covid")
    tr = wl.content(seed=0, n_days=0.25)
    configs = filter_knob_configs(wl, tr, seed=0)
    idx = sample_segment_indices(tr, sample_frac=0.02, seed=0)
    q = quality_vectors_numpy(wl, tr, configs, idx, seed=0)
    return wl, tr, configs, idx, q


class TestSampling:
    def test_indices_sorted_unique(self, setup):
        _, tr, _, idx, _ = setup
        assert (np.diff(idx) > 0).all()
        assert idx.max() < tr.n_segments

    def test_sample_size(self, setup):
        _, tr, _, idx, _ = setup
        assert len(idx) == round(tr.n_segments * 0.02)

    def test_deterministic(self, setup):
        _, tr, _, idx, _ = setup
        idx2 = sample_segment_indices(tr, sample_frac=0.02, seed=0)
        np.testing.assert_array_equal(idx, idx2)


class TestQualityVectors:
    def test_shape(self, setup):
        _, _, configs, idx, q = setup
        assert q.shape == (len(idx), len(configs))

    def test_monotone_in_config_quality_on_average(self, setup):
        wl, _, configs, _, q = setup
        means = q.mean(axis=0)
        # the most expensive config should beat the cheapest on average
        assert means[-1] > means[0]

    def test_noiseless_vs_noisy_close(self, setup):
        wl, tr, configs, idx, q = setup
        q0 = wl.quality_curves(configs, tr)[:, idx].T
        assert np.abs(q - q0).mean() < 3 * wl.quality_noise * q0.mean() + 0.2


class TestFitCategories:
    def test_centers_sorted_by_mean_quality(self, setup):
        _, _, configs, _, q = setup
        cats = fit_categories(q, 3, seed=0)
        means = cats.centers.mean(axis=1)
        assert (np.diff(means) >= -1e-9).all()

    def test_shapes(self, setup):
        _, _, configs, _, q = setup
        cats = fit_categories(q, 4, seed=0)
        assert cats.n == 4
        assert cats.n_configs == len(configs)
        assert cats.qual_hat().shape == (len(configs), 4)

    def test_classify_full_consistent(self, setup):
        _, _, configs, _, q = setup
        cats = fit_categories(q, 3, seed=0)
        labels = cats.classify_full(q)
        # most points should be closest to their assigned center
        d = ((q[:, None, :] - cats.centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, d.argmin(axis=1))

    def test_classify_1d_scalar_and_vector(self, setup):
        _, _, configs, _, q = setup
        cats = fit_categories(q, 3, seed=0)
        one = cats.classify_1d(0, float(q[0, 0]))
        many = cats.classify_1d(0, q[:, 0])
        assert one.shape == (1,)
        assert many.shape == (len(q),)
        assert many[0] == one[0]
        # one running configuration per quality value
        ks = np.arange(len(q)) % len(configs)
        per_seg = cats.classify_1d(ks, q[np.arange(len(q)), ks])
        scalar = [cats.classify_1d(int(k), float(q[i, k]))[0]
                  for i, k in enumerate(ks)]
        np.testing.assert_array_equal(per_seg, scalar)

    def test_classify_1d_matches_nearest_center_dim(self, setup):
        _, _, configs, _, q = setup
        cats = fit_categories(q, 3, seed=0)
        k = len(configs) - 1
        labels = cats.classify_1d(k, q[:, k])
        d = np.abs(q[:, k][:, None] - cats.centers[:, k][None])
        np.testing.assert_array_equal(labels, d.argmin(axis=1))

    def test_1d_classification_agrees_with_full_mostly(self, setup):
        """Paper Section 4.2: one discriminating dimension suffices."""
        _, _, configs, _, q = setup
        cats = fit_categories(q, 3, seed=0)
        spreads = cats.centers.std(axis=0)
        k = int(spreads.argmax())
        agree = (cats.classify_1d(k, q[:, k]) == cats.classify_full(q)).mean()
        assert agree > 0.85


class TestSparkParity:
    def test_spark_matches_numpy(self, spark, setup):
        wl, tr, configs, idx, q = setup
        q_spark = quality_vectors_spark(
            spark, wl, tr, configs, idx, seed=0
        )
        assert np.array_equal(q_spark, q)
        assert q_spark.flags.c_contiguous
        # KMeans' summation order follows the layout: same centers
        assert np.array_equal(
            fit_categories(q_spark, 3, seed=0).centers,
            fit_categories(q, 3, seed=0).centers,
        )

    def test_spark_sample_smaller_than_parallelism(self, spark, setup):
        """Empty partitions contribute no rows."""
        wl, tr, configs, idx, _ = setup
        small = idx[:2]
        assert len(small) < spark.sparkContext.defaultParallelism
        a = quality_vectors_spark(spark, wl, tr, configs, small, seed=0)
        b = quality_vectors_numpy(wl, tr, configs, small, seed=0)
        assert np.array_equal(a, b)

    def test_spark_mosei_with_multiplier(self, spark):
        wl = get_workload("mosei-high")
        tr = wl.content(seed=0, n_days=0.1)
        configs = [wl.cheapest_config(), wl.best_config()]
        idx = sample_segment_indices(tr, sample_frac=0.05, seed=0)
        a = quality_vectors_spark(spark, wl, tr, configs, idx, seed=0)
        b = quality_vectors_numpy(wl, tr, configs, idx, seed=0)
        assert np.array_equal(a, b)
