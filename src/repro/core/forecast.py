"""Content-distribution forecasting (paper Section 3.3, Appendices H/K).

The forecasting model F predicts how frequently each content category
appears over the next *planned interval*, given the category-frequency
histograms of the recent past.  Training data is created from the
unlabeled data (Appendix H): all training segments are classified with
the cheapest configuration k- through Skyscraper's standard 1-D
classification, the labels are aggregated into 15-minute histograms
(a training point every 15 minutes of data, Appendix K), and sliding
windows over the histogram series yield (input, label) pairs.

Histogram aggregation has both a Spark implementation (a window group-by
over the label stream — the dataflow a deployment would run) and a numpy
reference; tests assert their parity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.mlp import MLP

BIN_S = 900.0  # "a training point every 15 minutes" (App. K)


def histogram_series(
    labels: np.ndarray,
    *,
    seg_len: float,
    n_categories: int,
) -> np.ndarray:
    """(n_bins, C) per-bin category frequency histograms (rows sum to 1).

    Bin b covers segments with arrival time in [b*BIN_S, (b+1)*BIN_S).
    A trailing partial bin is kept (normalized over its own segments).
    """
    labels = np.asarray(labels, dtype=int)
    bins = (np.arange(len(labels)) * seg_len / BIN_S).astype(int)
    n_bins = int(bins.max()) + 1 if len(labels) else 0
    hist = np.zeros((n_bins, n_categories))
    np.add.at(hist, (bins, labels), 1.0)
    totals = hist.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return hist / totals


def histogram_series_spark(
    spark,
    labels: np.ndarray,
    *,
    seg_len: float,
    n_categories: int,
) -> np.ndarray:
    """Same histograms via a Spark group-by + pivot dataflow."""
    from pyspark.sql import functions as F

    pdf = pd.DataFrame(
        {
            "bin": (np.arange(len(labels)) * seg_len / BIN_S).astype(int),
            "label": np.asarray(labels, dtype=int),
        }
    )
    df = spark.createDataFrame(pdf)
    counts = (
        df.groupBy("bin")
        .pivot("label", list(range(n_categories)))
        .agg(F.count(F.lit(1)))
        .na.fill(0)
        .toPandas()
        .sort_values("bin")  # at most a few thousand bins: sort on the driver
    )
    mat = counts[[str(c) for c in range(n_categories)]].to_numpy(dtype=float)
    totals = mat.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return mat / totals


@dataclass(frozen=True)
class ForecastSpec:
    """Featurization of the forecasting task (Appendix I.3 defaults)."""

    n_categories: int
    in_days: float = 2.0  # T_input
    n_splits: int = 8
    out_days: float = 2.0  # planned interval

    @property
    def in_bins(self) -> int:
        return max(1, int(round(self.in_days * 86400.0 / BIN_S)))

    @property
    def out_bins(self) -> int:
        return max(1, int(round(self.out_days * 86400.0 / BIN_S)))

    @property
    def in_dim(self) -> int:
        return self.n_splits * self.n_categories


def featurize_window(spec: ForecastSpec, past: np.ndarray) -> np.ndarray:
    """Collapse the last ``in_bins`` histograms into ``n_splits`` means.

    ``past`` is (>= in_bins, C); uses the most recent in_bins rows (pads
    by repeating the oldest row if history is shorter).
    """
    past = np.atleast_2d(past)
    need = spec.in_bins
    if len(past) < need:
        pad = np.repeat(past[:1], need - len(past), axis=0)
        past = np.vstack([pad, past])
    window = past[-need:]
    chunks = np.array_split(window, spec.n_splits, axis=0)
    return np.concatenate([c.mean(axis=0) for c in chunks])


def build_training_pairs(
    hists: np.ndarray, spec: ForecastSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding (input, label) pairs over a histogram series.

    Input: the past in_days split into n_splits mean-histograms.
    Label: the mean histogram over the next out_days.
    """
    n = len(hists)
    xs, ys = [], []
    for t in range(spec.in_bins, n - spec.out_bins + 1):
        xs.append(featurize_window(spec, hists[:t]))
        ys.append(hists[t : t + spec.out_bins].mean(axis=0))
    if not xs:
        return (
            np.empty((0, spec.in_dim)),
            np.empty((0, spec.n_categories)),
        )
    return np.asarray(xs), np.asarray(ys)


def train_forecaster(
    x: np.ndarray, y: np.ndarray, spec: ForecastSpec, *, seed: int = 0
) -> MLP:
    """Train the Appendix-K network: in -> 16 ReLU -> 8 ReLU -> softmax."""
    model = MLP(
        in_dim=spec.in_dim, hidden=(16, 8), out_dim=spec.n_categories, seed=seed
    )
    model.fit(x, y, epochs=40, seed=seed)
    return model


def mae(pred: np.ndarray, true: np.ndarray) -> float:
    """Mean Absolute Error between frequency vectors (paper Table 5/6)."""
    return float(np.abs(np.asarray(pred) - np.asarray(true)).mean())
