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
from repro.exp.report import Col, Table
from repro.workloads import get_workload

HORIZONS = (1.0, 2.0, 4.0, 8.0)
INPUT_DAYS = (0.5, 1.0, 2.0, 4.0, 8.0)
SPLITS = (1, 2, 4, 8)


def _fit_labels(name: str, *, seed, train_days, test_days):
    """The workload, its category count and its category labels over
    train+test, via the discriminator config."""
    wl = get_workload(name)
    fitted = fit_skyscraper(
        wl, seed=seed, train_days=train_days, train_forecast=False
    )
    full = wl.content(seed=seed, n_days=train_days + test_days)
    labels = label_segments(
        wl, full, fitted.configs, fitted.categories, fitted.k_label_idx,
        seed=seed,
    )
    return wl, fitted.categories.n, labels


def _train_test_mae(
    labels: np.ndarray, *, seg_len: float, train_days: float,
    spec: ForecastSpec, seed: int,
) -> float:
    """Train on pairs ending before the train/test split; report test MAE."""
    hists = histogram_series(
        labels, seg_len=seg_len, n_categories=spec.n_categories,
        bin_s=spec.bin_s,
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
    *, workloads=("covid", "mot"), train_days: float = 16.0,
    test_days: float = 8.0, seed: int = 0, horizons=HORIZONS,
) -> pd.DataFrame:
    rows = []
    for name in workloads:
        wl, n_cat, labels = _fit_labels(
            name, seed=seed, train_days=train_days, test_days=test_days
        )
        for h in horizons:
            err = _train_test_mae(
                labels, seg_len=wl.seg_len, train_days=train_days,
                spec=ForecastSpec(n_categories=n_cat, out_days=h), seed=seed,
            )
            rows.append({"workload": name, "horizon_days": h,
                         "paper_mae": PAPER_TABLE5.get(name, {}).get(int(h)),
                         "mae": round(err, 4)})
    return pd.DataFrame(rows)


def run_table6(
    *, train_days: float = 16.0, test_days: float = 8.0, seed: int = 0,
    input_days=INPUT_DAYS, splits=SPLITS,
) -> pd.DataFrame:
    wl, n_cat, labels = _fit_labels(
        "covid", seed=seed, train_days=train_days, test_days=test_days
    )
    rows = []
    for in_d in input_days:
        for s in splits:
            spec = ForecastSpec(
                n_categories=n_cat, in_days=in_d, n_splits=s, out_days=2.0
            )
            err = _train_test_mae(
                labels, seg_len=wl.seg_len, train_days=train_days,
                spec=spec, seed=seed,
            )
            # the key (1.0, 8) finds the paper's (1, 8)
            rows.append({"input_days": in_d, "splits": s,
                         "paper_mae": PAPER_TABLE6.get((in_d, s)),
                         "mae": round(err, 4)})
    return pd.DataFrame(rows)


def check_table5(df: pd.DataFrame) -> list[str]:
    """Every MAE is well below the uniform prediction's (under 0.25)."""
    return [
        f"{r.workload} {r.horizon_days:g}-day horizon: MAE {r.mae}, "
        "not under 0.25"
        for r in df.itertuples() if not pd.isna(r.mae) and not r.mae < 0.25
    ]


def check_table6(df: pd.DataFrame) -> list[str]:
    """With 1 input day, 8 splits are at most 0.05 worse than 1 split."""
    by = df.set_index(["input_days", "splits"]).mae
    one, eight = (by.get((1.0, s), float("nan")) for s in (1, 8))
    if eight <= one + 0.05:
        return []
    return [f"1 input day: MAE {eight} with 8 splits, over {one} + 0.05 "
            "with 1 split"]


MAE_COLUMNS = (Col("paper_mae", "paper MAE"), Col("mae", "ours MAE"))
TABLE5 = Table(
    "table5", run_table5,
    (Col("workload", "workload"),
     Col("horizon_days", "horizon (days)", "{:.0f}")) + MAE_COLUMNS,
    check_table5, spark=False,
)
TABLE6 = Table(
    "table6", run_table6,
    (Col("input_days", "input days"), Col("splits", "splits")) + MAE_COLUMNS,
    check_table6, spark=False,
)
