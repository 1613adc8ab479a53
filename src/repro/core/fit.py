"""Offline preparation phase (paper Section 3, Figure 2 left half).

``fit_skyscraper`` runs the full offline pipeline on historical data from
the ingested source and produces a :class:`Fitted` artifact that the
online phase consumes:

1. filter knob configurations (hill climbing on max-min sampled
   segments, Appendix A.1);
2. profile and Pareto-filter task placements on a reference cluster
   over the training trace's multipliers (Appendix A.2; the same filter
   runs again per actual cluster at run time, as the runtime depends on
   the core count);
3. compute content categories: KMeans over quality vectors of a segment
   sample (Section 3.2) — the profiling runs as a Spark dataflow when a
   SparkSession is provided;
4. create forecast training data by classifying *all* training segments
   with the cheapest discriminating configuration (Appendix H, footnote
   7; :func:`label_segments`) and aggregating histograms;
5. train the forecasting model (Appendix K architecture).

Wall-clock per step is recorded in ``Fitted.timings`` — this reproduces
Table 3 (offline-phase runtimes).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.categories import (
    Categories,
    fit_categories,
    quality_vectors_numpy,
    quality_vectors_spark,
    sample_segment_indices,
)
from repro.core.forecast import (
    ForecastSpec,
    build_training_pairs,
    histogram_series,
    histogram_series_spark,
    train_forecaster,
)
from repro.core.mlp import MLP
from repro.core.offline import filter_knob_configs
from repro.core.placement import frontier_placements, multiplier_grid
from repro.sim.cluster import make_cluster
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


@dataclass
class Fitted:
    """Everything the online phase needs, precomputed offline."""

    configs: list[Config]  # filtered set K, sorted by increasing work
    work: np.ndarray  # (K,) core-seconds per video-second
    categories: Categories  # cluster centers (C, K)
    forecaster: MLP
    spec: ForecastSpec
    mean_mult: float  # mean work multiplier in training data
    train_hists: np.ndarray  # (n_bins, C) training histogram series
    k_label_idx: int = 0  # discriminator config used for offline labeling
    timings: dict = field(default_factory=dict)


def default_n_categories(wl: Workload) -> int:
    """Appendix K.1: COVID and MOT use 3 categories, MOSEI uses 5."""
    return 5 if wl.name.startswith("mosei") else 3


def label_segments(
    wl: Workload,
    trace: ContentTrace,
    configs: list[Config],
    categories: Categories,
    k: int,
    *,
    seed: int,
) -> np.ndarray:
    """Category of every segment of ``trace`` by Eq. 5 on the reported
    quality of the discriminator configuration ``configs[k]`` (fit step
    4's labels)."""
    obs = wl.observed_quality(
        [configs[k]], trace.difficulty, trace.global_ids(), seed=seed,
        mult=trace.work_multiplier,
    )
    return categories.classify_1d(k, obs[0])


def fit_skyscraper(
    wl: Workload,
    *,
    seed: int = 0,
    train_days: float | None = None,
    n_categories: int | None = None,
    sample_frac: float = 0.05,
    plan_days: float | None = None,
    in_days: float | None = None,
    spark=None,
    trace: ContentTrace | None = None,
) -> Fitted:
    """Run the offline phase on ``train_days`` of historical data.

    ``plan_days`` and ``in_days`` (the forecaster's output and input
    windows) default to ``min(2.0, train_days / 8.0)``.  A training
    window too short for one forecast training pair raises
    ``ValueError``."""
    timings: dict[str, float] = {}
    if train_days is None:
        train_days = wl.train_days
    # the planning horizon must be learnable from the training window
    # (the paper: 16 train days for a 2-day horizon, a 8:1 ratio)
    horizon = min(2.0, train_days / 8.0)
    plan_days = horizon if plan_days is None else plan_days
    in_days = horizon if in_days is None else in_days
    if n_categories is None:
        n_categories = default_n_categories(wl)

    if trace is None:
        trace = wl.content(seed=seed, n_days=train_days, start_day=0.0)

    # 1. filter knob configurations -----------------------------------------
    t0 = time.perf_counter()
    configs = filter_knob_configs(wl, trace, seed=seed)
    work = np.array([wl.work_per_vs(c) for c in configs])
    timings["filter_knob_configs"] = time.perf_counter() - t0

    # 2. filter task placements (reference cluster; re-done per cluster
    #    online since runtimes depend on the core count) ---------------------
    t0 = time.perf_counter()
    ref_cluster = make_cluster(8)
    mult_grid, _ = multiplier_grid(trace)
    for cfg in configs:
        frontier_placements(wl.task_graph(cfg), ref_cluster, mult_grid)
    timings["filter_task_placements"] = time.perf_counter() - t0

    # 3. content categories ---------------------------------------------------
    t0 = time.perf_counter()
    idx = sample_segment_indices(trace, sample_frac=sample_frac, seed=seed)
    if spark is not None:
        q_vecs = quality_vectors_spark(
            spark, wl, trace, configs, idx, seed=seed
        )
    else:
        q_vecs = quality_vectors_numpy(wl, trace, configs, idx, seed=seed)
    categories = fit_categories(q_vecs, n_categories, seed=seed)
    timings["compute_content_categories"] = time.perf_counter() - t0

    # Footnote 7: if k- achieves similar quality on all content
    # categories (not a good discriminator), pick the next cheapest
    # configuration that is one.  Discrimination = spread of the
    # configuration's column across the cluster centers.
    spreads = categories.centers.std(axis=0)  # (K,)
    k_label_idx = 0  # k-: configs are sorted by work
    if spreads.max() > 0:
        for j in np.argsort(work):
            if spreads[j] >= 0.5 * spreads.max():
                k_label_idx = int(j)
                break
        else:
            k_label_idx = int(np.argmax(spreads))

    # 4. create forecast training data (classify all training segments
    #    with k-, aggregate 15-min histograms) -------------------------------
    t0 = time.perf_counter()
    spec = ForecastSpec(
        n_categories=n_categories,
        in_days=in_days,
        out_days=plan_days,
    )
    labels = label_segments(
        wl, trace, configs, categories, k_label_idx, seed=seed
    )
    if spark is not None:
        train_hists = histogram_series_spark(
            spark,
            labels,
            seg_len=wl.seg_len,
            n_categories=n_categories,
        )
    else:
        train_hists = histogram_series(
            labels,
            seg_len=wl.seg_len,
            n_categories=n_categories,
        )
    x, y = build_training_pairs(train_hists, spec)
    timings["create_forecast_training_data"] = time.perf_counter() - t0
    if not len(x):
        raise ValueError(
            f"{train_days} training days hold no forecast training pair "
            f"for in_days={in_days} and plan_days={plan_days}"
        )

    # 5. train the forecasting model -----------------------------------------
    t0 = time.perf_counter()
    forecaster = train_forecaster(x, y, spec, seed=seed)
    timings["train_forecast_model"] = time.perf_counter() - t0

    return Fitted(
        configs=configs,
        work=work,
        categories=categories,
        forecaster=forecaster,
        spec=spec,
        mean_mult=float(trace.work_multiplier.mean()),
        train_hists=train_hists,
        k_label_idx=k_label_idx,
        timings=timings,
    )
