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
from repro.exp.sweep import run_grid


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
    from repro.workloads import get_workload

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
    from repro.workloads import get_workload

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
    merged = df.merge(
        paper_table2(), on=["workload", "method", "vcpus"], how="left"
    )
    return merged


def format_table2(df: pd.DataFrame) -> str:
    """Markdown rendering with paper-vs-measured columns side by side."""
    cols = [
        "workload",
        "method",
        "vcpus",
        "paper_quality_pct",
        "quality_pct",
        "paper_cloud_usd",
        "cloud_usd_full",
        "paper_total_usd",
        "total_usd_full",
        "overflow",
    ]
    view = df[cols].copy()
    view["quality_pct"] = view["quality_pct"].round(1)
    view["cloud_usd_full"] = view["cloud_usd_full"].round(2)
    view["total_usd_full"] = view["total_usd_full"].round(1)
    header = (
        "| workload | method | vCPUs | paper q% | ours q% | paper cloud$ "
        "| ours cloud$ | paper total$ | ours total$ | overflow |"
    )
    sep = "|" + "---|" * 10
    lines = [header, sep]
    for _, r in view.iterrows():
        pc = "-" if pd.isna(r.paper_cloud_usd) else f"{r.paper_cloud_usd:.1f}"
        pq = "-" if pd.isna(r.paper_quality_pct) else f"{r.paper_quality_pct:.0f}"
        pt = "-" if pd.isna(r.paper_total_usd) else f"{r.paper_total_usd:.1f}"
        lines.append(
            f"| {r.workload} | {r.method} | {r.vcpus} | {pq} | "
            f"{r.quality_pct} | {pc} | {r.cloud_usd_full} | {pt} | "
            f"{r.total_usd_full} | {bool(r.overflow)} |"
        )
    return "\n".join(lines)
