"""Table 4 (Appendix I.1, Section 5.6): knob-switcher classification
accuracy for a varying number of content categories (COVID).

For each |C| in {1, 2, 3, 4, 8} the offline phase is refitted and the
online run replayed; accuracy is the fraction of segments whose Eq.-5
(1-D, previous-segment) classification matches the full-vector
ground-truth category.  Expected shape: 100% at one category, slowly
decreasing as categories multiply.
"""
from __future__ import annotations

import pandas as pd

from repro.exp.paper_numbers import PAPER_TABLE4
from repro.exp.report import Col, Table
from repro.exp.sweep import run_grid

CATEGORY_COUNTS = (1, 2, 3, 4, 8)


def build_grid(
    *, vcpus: int = 8, seed: int = 0, test_days: float | None = None
) -> list[dict]:
    cell = {"workload": "covid", "method": "skyscraper", "vcpus": vcpus,
            "seed": seed}
    if test_days is not None:
        cell["test_days"] = test_days
    return [{**cell, "n_categories": n} for n in CATEGORY_COUNTS]


def run_table4(
    spark=None, *, vcpus: int = 8, seed: int = 0, test_days: float | None = None
) -> pd.DataFrame:
    df = run_grid(build_grid(vcpus=vcpus, seed=seed, test_days=test_days), spark)
    df = df.rename(columns={"n_categories": "categories"})
    df = df.sort_values("categories").reset_index(drop=True)
    df["accuracy_pct"] = (100.0 * df["switch_accuracy"]).round(1)
    df["paper_accuracy_pct"] = df["categories"].map(PAPER_TABLE4)
    return df[["categories", "paper_accuracy_pct", "accuracy_pct",
               "quality_pct", "switch_accuracy_no_typeb"]]


COLUMNS = (
    Col("categories", "categories"),
    Col("paper_accuracy_pct", "paper accuracy", "{}%"),
    Col("accuracy_pct", "ours accuracy", "{}%"),
    Col("quality_pct", "ours quality%", "{:.1f}"),
)


def check_table4(df: pd.DataFrame) -> list[str]:
    """Classification is perfect with one category, over 80% accurate
    with three, and no more accurate with eight than with one."""
    acc = dict(zip(df.categories, df.accuracy_pct))
    one, three, eight = (acc.get(n, float("nan")) for n in (1, 3, 8))
    return [msg for ok, msg in (
        (one == 100.0, f"|C|=1: accuracy {one}%, not 100%"),
        (three > 80.0, f"|C|=3: accuracy {three}%, not over 80%"),
        (eight <= one, f"|C|=8: accuracy {eight}%, above |C|=1's {one}%"),
    ) if not ok]


TABLE = Table("table4", run_table4, COLUMNS, check_table4)
