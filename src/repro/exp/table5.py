"""Tables 5 and 6 (Appendix I.3, Section 5.6): forecasting-model MAE.

Table 5: MAE of the forecasting model over horizons {1, 2, 4, 8} days,
trained on 16 days of unlabeled data and evaluated on the following
8 days, for COVID and MOT.  Expected shape: best around 2 days, worst
at 8 (long horizons decorrelate; very short ones do not average out the
content randomness).

Table 6: MAE for a 2-day horizon with the input featurized as
{0.5, 1, 2, 4, 8} input days split into {1, 2, 4, 8} histograms.
Expected shape: 8-way splits are uniformly good.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.fit import fit_skyscraper, label_segments
from repro.core.forecast import (
    ForecastSpec,
    build_training_pairs,
    histogram_series,
    mae,
    train_forecaster,
)
from repro.exp.paper_numbers import PAPER_TABLE5, PAPER_TABLE6
from repro.workloads import get_workload

HORIZONS = (1.0, 2.0, 4.0, 8.0)
INPUT_DAYS = (0.5, 1.0, 2.0, 4.0, 8.0)
SPLITS = (1, 2, 4, 8)


def _label_series(wl, fitted, *, seed, train_days, test_days):
    """Category labels over train+test, via the discriminator config."""
    full = wl.content(seed=seed, n_days=train_days + test_days)
    return label_segments(
        wl, full, fitted.configs, fitted.categories, fitted.k_label_idx,
        seed=seed,
    )


def _train_test_mae(
    labels: np.ndarray,
    *,
    seg_len: float,
    n_categories: int,
    train_days: float,
    spec: ForecastSpec,
    seed: int,
) -> float:
    """Train on pairs ending before the train/test split; report test MAE."""
    hists = histogram_series(
        labels, seg_len=seg_len, n_categories=n_categories, bin_s=spec.bin_s
    )
    x, y = build_training_pairs(hists, spec)
    # pair index t corresponds to forecast origin bin (t + in_bins)
    origins = np.arange(spec.in_bins, spec.in_bins + len(x))
    train_bins = int(round(train_days * 86400.0 / spec.bin_s))
    is_train = origins + spec.out_bins <= train_bins
    is_test = origins >= train_bins
    if is_train.sum() < 4 or is_test.sum() < 1:
        return float("nan")
    model = train_forecaster(x[is_train], y[is_train], spec, seed=seed)
    pred = model.predict_proba(x[is_test])
    return mae(pred, y[is_test])


def run_table5(
    *,
    workloads=("covid", "mot"),
    train_days: float = 16.0,
    test_days: float = 8.0,
    seed: int = 0,
    horizons=HORIZONS,
) -> pd.DataFrame:
    rows = []
    for name in workloads:
        wl = get_workload(name)
        fitted = fit_skyscraper(
            wl, seed=seed, train_days=train_days, train_forecast=False
        )
        labels = _label_series(
            wl, fitted, seed=seed, train_days=train_days, test_days=test_days
        )
        for h in horizons:
            spec = ForecastSpec(
                n_categories=fitted.categories.n, out_days=h
            )
            err = _train_test_mae(
                labels,
                seg_len=wl.seg_len,
                n_categories=fitted.categories.n,
                train_days=train_days,
                spec=spec,
                seed=seed,
            )
            rows.append(
                {
                    "workload": name,
                    "horizon_days": h,
                    "paper_mae": PAPER_TABLE5.get(name, {}).get(int(h)),
                    "mae": round(err, 4),
                }
            )
    return pd.DataFrame(rows)


def run_table6(
    *,
    train_days: float = 16.0,
    test_days: float = 8.0,
    seed: int = 0,
    input_days=INPUT_DAYS,
    splits=SPLITS,
) -> pd.DataFrame:
    wl = get_workload("covid")
    fitted = fit_skyscraper(
        wl, seed=seed, train_days=train_days, train_forecast=False
    )
    labels = _label_series(
        wl, fitted, seed=seed, train_days=train_days, test_days=test_days
    )
    rows = []
    for in_d in input_days:
        for s in splits:
            spec = ForecastSpec(
                n_categories=fitted.categories.n,
                in_days=in_d,
                n_splits=s,
                out_days=2.0,
            )
            err = _train_test_mae(
                labels,
                seg_len=wl.seg_len,
                n_categories=fitted.categories.n,
                train_days=train_days,
                spec=spec,
                seed=seed,
            )
            rows.append(
                {
                    "input_days": in_d,
                    "splits": s,
                    "paper_mae": PAPER_TABLE6.get((in_d, s))
                    or PAPER_TABLE6.get((int(in_d), s)),
                    "mae": round(err, 4),
                }
            )
    return pd.DataFrame(rows)


def format_table5(df: pd.DataFrame) -> str:
    lines = [
        "| workload | horizon (days) | paper MAE | ours MAE |",
        "|---|---|---|---|",
    ]
    for _, r in df.iterrows():
        lines.append(
            f"| {r.workload} | {r.horizon_days:.0f} | {r.paper_mae} | {r.mae} |"
        )
    return "\n".join(lines)


def format_table6(df: pd.DataFrame) -> str:
    lines = [
        "| input days | splits | paper MAE | ours MAE |",
        "|---|---|---|---|",
    ]
    for _, r in df.iterrows():
        lines.append(
            f"| {r.input_days} | {int(r.splits)} | {r.paper_mae} | {r.mae} |"
        )
    return "\n".join(lines)
