"""Tests for forecasting (Section 3.3, Appendix H)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.forecast import (
    ForecastSpec,
    build_training_pairs,
    featurize_window,
    histogram_series,
    histogram_series_spark,
    mae,
    train_forecaster,
)


class TestHistogramSeries:
    def test_rows_sum_to_one(self):
        labels = np.random.default_rng(0).integers(0, 3, 5000)
        h = histogram_series(labels, seg_len=2.0, n_categories=3)
        np.testing.assert_allclose(h.sum(axis=1), 1.0)

    def test_bin_count(self):
        # 1800 segments of 2 s = 3600 s = 4 bins of 900 s
        labels = np.zeros(1800, dtype=int)
        h = histogram_series(labels, seg_len=2.0, n_categories=2)
        assert h.shape == (4, 2)

    def test_counts_correct(self):
        labels = np.array([0] * 225 + [1] * 225)  # one 900 s bin at 2 s
        h = histogram_series(labels, seg_len=2.0, n_categories=2)
        np.testing.assert_allclose(h[0], [0.5, 0.5])

    def test_partial_trailing_bin(self):
        labels = np.array([1] * 10)
        h = histogram_series(labels, seg_len=2.0, n_categories=2)
        assert h.shape == (1, 2)
        np.testing.assert_allclose(h[0], [0.0, 1.0])

    def test_empty(self):
        h = histogram_series(np.array([], dtype=int), seg_len=2.0, n_categories=2)
        assert h.shape == (0, 2)

    def test_spark_parity(self, spark):
        labels = np.random.default_rng(1).integers(0, 4, 20_000)
        a = histogram_series(labels, seg_len=2.0, n_categories=4)
        b = histogram_series_spark(spark, labels, seg_len=2.0, n_categories=4)
        assert np.array_equal(a, b)


class TestFeaturize:
    def test_shape(self):
        spec = ForecastSpec(n_categories=3, in_days=1.0, n_splits=4)
        past = np.random.default_rng(0).random((spec.in_bins + 10, 3))
        x = featurize_window(spec, past)
        assert x.shape == (12,)

    def test_short_history_padded(self):
        spec = ForecastSpec(n_categories=2, in_days=1.0, n_splits=4)
        past = np.array([[0.3, 0.7]])
        x = featurize_window(spec, past)
        np.testing.assert_allclose(x, [0.3, 0.7] * 4)

    def test_uses_most_recent(self):
        spec = ForecastSpec(n_categories=1, in_days=1.0, n_splits=2)
        past = np.arange(2 * spec.in_bins, dtype=float)[:, None]
        x = featurize_window(spec, past)
        # must come from the last in_bins rows only
        assert x.min() >= spec.in_bins - 1


class TestTrainingPairs:
    def test_shapes_and_count(self):
        spec = ForecastSpec(n_categories=2, in_days=0.5, n_splits=2, out_days=0.5)
        hists = np.random.default_rng(0).random((200, 2))
        hists /= hists.sum(axis=1, keepdims=True)
        x, y = build_training_pairs(hists, spec)
        assert x.shape[1] == spec.in_dim
        assert y.shape[1] == 2
        assert len(x) == 200 - spec.in_bins - spec.out_bins + 1

    def test_label_is_future_mean(self):
        spec = ForecastSpec(n_categories=2, in_days=0.5, n_splits=1, out_days=0.25)
        hists = np.random.default_rng(1).random((120, 2))
        x, y = build_training_pairs(hists, spec)
        t = spec.in_bins
        np.testing.assert_allclose(y[0], hists[t : t + spec.out_bins].mean(axis=0))

    def test_too_short_series(self):
        spec = ForecastSpec(n_categories=2, in_days=2.0, n_splits=2, out_days=2.0)
        x, y = build_training_pairs(np.random.random((10, 2)), spec)
        assert len(x) == 0


class TestEndToEnd:
    def test_learns_diurnal_pattern(self):
        """A periodic category pattern must be forecastable well below
        the uniform-prediction error."""
        rng = np.random.default_rng(0)
        n_bins = 96 * 12  # 12 days of 15-min bins
        t = np.arange(n_bins)
        frac = 0.5 + 0.4 * np.sin(2 * np.pi * t / 96.0)
        hists = np.stack([frac, 1 - frac], axis=1)
        hists += rng.normal(0, 0.02, hists.shape)
        hists = np.clip(hists, 0, 1)
        hists /= hists.sum(axis=1, keepdims=True)
        spec = ForecastSpec(n_categories=2, in_days=1.0, n_splits=8, out_days=0.5)
        x, y = build_training_pairs(hists, spec)
        split = int(len(x) * 0.7)
        model = train_forecaster(x[:split], y[:split], spec, seed=0)
        pred = model.predict_proba(x[split:])
        err = mae(pred, y[split:])
        uniform = mae(np.full_like(y[split:], 0.5), y[split:])
        assert err < uniform * 0.8

    def test_mae_zero_for_identical(self):
        a = np.random.random((5, 3))
        assert mae(a, a) == 0.0

    def test_mae_symmetric(self):
        a = np.random.random((5, 3))
        b = np.random.random((5, 3))
        assert mae(a, b) == pytest.approx(mae(b, a))
