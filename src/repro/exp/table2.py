"""Table 2 (Appendix C / Figure 4, Section 5.3): cost-quality trade-off
of Static, Chameleon* and Skyscraper across hardware provisionings.

The grid mirrors the paper's reported rows exactly (e.g. Skyscraper is
only reported at 4/8 vCPUs for COVID and MOT).  Cost columns follow the
Appendix-L price model deterministically; quality and cloud spend come
from the ingestion simulation.
"""
from __future__ import annotations

import pandas as pd

from repro.exp.paper_numbers import PAPER_TABLE2_ROWS, paper_table2
from repro.exp.report import Col, Table
from repro.exp.sweep import run_grid
from repro.workloads import get_workload


def build_grid(
    *,
    test_days_scale: float = 1.0,
    seed: int = 0,
    workloads=None,
) -> list[dict]:
    """One grid cell per paper Table 2 row.

    ``test_days_scale`` shrinks the simulated stream duration (costs are
    reported for the full duration regardless; quality percentages are
    averages, so shorter windows only add sampling noise).
    """
    return [
        {
            "workload": w,
            "method": m,
            "vcpus": v,
            "seed": seed,
            "test_days": get_workload(w).test_days * test_days_scale,
        }
        for w, m, _, v, _, _ in PAPER_TABLE2_ROWS
        if not workloads or w in workloads
    ]


def run_table2(
    spark=None, *, test_days_scale: float = 1.0, seed: int = 0, workloads=None
) -> pd.DataFrame:
    """Run the Table 2 grid; returns measured rows joined with the
    paper's numbers.  Costs are scaled to the paper's full durations."""
    grid = build_grid(
        test_days_scale=test_days_scale, seed=seed, workloads=workloads
    )
    df = run_grid(grid, spark)
    # report costs over the paper's full duration even for scaled runs
    full_days = df["workload"].map(lambda w: get_workload(w).test_days)
    scale = full_days / df["duration_days"]
    df["onprem_usd_full"] = df["onprem_usd"] * scale
    df["cloud_usd_full"] = df["cloud_usd"] * scale
    df["total_usd_full"] = df["onprem_usd_full"] + df["cloud_usd_full"]
    return df.merge(
        paper_table2(), on=["workload", "method", "vcpus"], how="left"
    )


COLUMNS = (
    Col("workload", "workload"),
    Col("method", "method"),
    Col("vcpus", "vCPUs"),
    Col("paper_quality_pct", "paper q%", "{:.0f}"),
    Col("quality_pct", "ours q%", digits=1),
    Col("paper_cloud_usd", "paper cloud$", "{:.1f}"),
    Col("cloud_usd_full", "ours cloud$", digits=2),
    Col("paper_total_usd", "paper total$", "{:.1f}"),
    Col("total_usd_full", "ours total$", digits=1),
    Col("overflow", "overflow"),
)


def check_table2(df: pd.DataFrame) -> list[str]:
    """Skyscraper never overflows, and it beats Static's quality at
    equal vCPUs."""
    static = df[df.method == "static"].set_index(["workload", "vcpus"])
    fails = []
    for r in df[df.method == "skyscraper"].itertuples():
        cell = f"{r.workload} skyscraper@{r.vcpus}"
        if r.overflow:
            fails.append(f"{cell} overflowed its buffer")
        q = static.quality_pct.get((r.workload, r.vcpus))
        if q is not None and not r.quality_pct > q:
            fails.append(f"{cell}: quality {r.quality_pct:.1f}% <= "
                         f"Static's {q:.1f}%")
    return fails


TABLE = Table("table2", run_table2, COLUMNS, check_table2)
