"""Table 3 (Appendix E, Section 5.5): offline-phase step runtimes.

Runs the COVID offline phase end to end (with the Spark dataflows when a
session is given) and reports per-step wall-clock next to the paper's
minutes.  Absolute times differ by orders of magnitude (our UDFs are
analytic models, theirs run real CV); the *shape* to check
(:func:`check_table3`) is that the data-intensive steps dominate the
offline phase and model training does not.
"""
from __future__ import annotations

import pandas as pd

from repro.core.fit import fit_skyscraper
from repro.exp.paper_numbers import PAPER_TABLE3_MINUTES
from repro.exp.report import Col, Table
from repro.workloads import get_workload


def run_table3(
    spark=None, *, seed: int = 0, train_days: float = 16.0
) -> pd.DataFrame:
    """One row per offline step, in the paper's order."""
    fitted = fit_skyscraper(
        get_workload("covid"), seed=seed, train_days=train_days, spark=spark
    )
    total = sum(fitted.timings.values())
    paper_total = sum(PAPER_TABLE3_MINUTES.values())
    return pd.DataFrame([
        {
            "step": step,
            "paper_minutes": minutes,
            "paper_share_pct": 100.0 * minutes / paper_total,
            "ours_seconds": round(fitted.timings[step], 3),
            "ours_share_pct": round(100.0 * fitted.timings[step] / total, 1)
            if total else 0.0,
        }
        for step, minutes in PAPER_TABLE3_MINUTES.items()
    ])


COLUMNS = (
    Col("step", "step"),
    Col("paper_minutes", "paper runtime", "{:.0f} min"),
    Col("paper_share_pct", "paper share", "{:.0f}%"),
    Col("ours_seconds", "ours (s)"),
    Col("ours_share_pct", "ours share", "{}%"),
)


def check_table3(df: pd.DataFrame) -> list[str]:
    """The data-intensive steps take over 60% of the offline phase and
    model training under 20%.

    The shares depend on the fit path.  The job fits 16 days with the
    Spark dataflows, where training is about 2% of the phase; an
    in-process 4-day fit makes the data steps cheap, and training reads
    23-26% there (EXPERIMENTS.md, Table 3).
    """
    s = df.set_index("step").ours_seconds
    total = s.sum()
    data = s.compute_content_categories + s.create_forecast_training_data
    train = s.train_forecast_model
    return [msg for ok, msg in (
        (data > 0.6 * total, f"data steps {data:.3f} s of {total:.3f} s "
                             f"({data / total:.0%}), not over 60%"),
        (train < 0.2 * total, f"train_forecast_model {train:.3f} s of "
                              f"{total:.3f} s ({train / total:.0%}), "
                              "not under 20%"),
    ) if not ok]


TABLE = Table("table3", run_table3, COLUMNS, check_table3)
