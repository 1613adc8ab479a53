"""The table harness without simulation: the markdown renderer, each
table's shape check on hand-made frames, and the committed results."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.exp import table2, table3, table4, table5
from repro.exp.paper_numbers import PAPER_TABLE3_MINUTES
from repro.exp.report import Col, markdown, verdicts

RESULTS = Path(__file__).resolve().parent.parent / "results"
TABLES = {t.name: t for t in (table2.TABLE, table3.TABLE, table4.TABLE,
                              table5.TABLE5, table5.TABLE6)}


def t2(sky_q, sky_overflow):
    return pd.DataFrame({
        "workload": ["covid"] * 3,
        "method": ["skyscraper", "static", "chameleon"],
        "vcpus": [8, 8, 8],
        "quality_pct": [sky_q, 63.3, 60.3],
        "overflow": [sky_overflow, False, True],
    })


def t3(seconds):
    return pd.DataFrame({"step": list(PAPER_TABLE3_MINUTES),
                         "ours_seconds": seconds})


def t4(acc):
    return pd.DataFrame({"categories": [1, 2, 3, 4, 8], "accuracy_pct": acc})


def t5(maes):
    return pd.DataFrame({"workload": ["covid", "mot"],
                         "horizon_days": [2.0, 8.0], "mae": maes})


def t5_horizons(covid, mot):
    return pd.DataFrame({"workload": ["covid"] * 4 + ["mot"] * 4,
                         "horizon_days": [1.0, 2.0, 4.0, 8.0] * 2,
                         "mae": covid + mot})


def t6(eight):
    return pd.DataFrame({"input_days": [0.5, 1.0, 1.0],
                         "splits": [8, 1, 8], "mae": [0.03, 0.036, eight]})


# case -> (a frame that passes, a frame that fails, a part of each
# failure); a case is named after its table, with an optional "-" suffix
CASES = {
    "table2": (t2(79.4, False), t2(63.3, True),
               ["overflowed", "63.3% <= Static's 63.3%"]),
    "table3": (t3([0.03, 0.02, 5.8, 4.5, 0.26]),
               t3([0.03, 0.02, 0.06, 0.05, 0.06]),
               ["0.110 s of 0.220 s (50%)", "0.060 s of 0.220 s (27%)"]),
    "table4": (t4([100.0, 93.0, 91.9, 85.9, 78.3]),
               t4([99.0, 93.0, 80.0, 85.9, 99.5]),
               ["99.0%", "80.0%", "85.9%, above |C|=3's 80.0%",
                "99.5%, above |C|=4's 85.9%"]),
    "table4-rising": (t4([100.0, 93.0, 91.9, 85.9, 78.3]),
                      t4([100.0, 93.0, 91.9, 92.5, 78.3]),
                      ["|C|=4: accuracy 92.5%, above |C|=3's 91.9%"]),
    "table5": (t5([0.02, np.nan]), t5([0.02, 0.25]),
               ["mot 8-day horizon: MAE 0.25"]),
    "table5-growth": (
        t5_horizons([0.0189, 0.0204, 0.0246, 0.0248],
                    [0.0311, 0.0355, 0.0436, 0.0433]),
        t5_horizons([0.0189, 0.0204, 0.0204, 0.0248],
                    [0.0311, 0.0436, 0.0355, 0.0433]),
        ["covid: MAE 0.0204 at 4 days, not above 0.0204 at 2 days",
         "mot: MAE 0.0355 at 4 days, not above 0.0436 at 2 days"]),
    "table6": (t6(0.0236), t6(0.0861),
               ["MAE 0.0861 with 8 splits, over 0.036"]),
}


class TestMarkdown:
    COLS = (Col("name", "who"), Col("x", "x%", "{:.0f}%"),
            Col("y", "y", digits=1), Col("flag", "flag"))

    def test_header_separator_and_one_line_per_row(self):
        df = pd.DataFrame({"name": ["a", "b"], "x": [12.4, 7.6],
                           "y": [0.25, 3.0], "flag": [True, False]})
        assert markdown(df, self.COLS).splitlines() == [
            "| who | x% | y | flag |",
            "|---|---|---|---|",
            "| a | 12% | 0.2 | True |",
            "| b | 8% | 3.0 | False |",
        ]

    def test_missing_value_is_a_dash(self):
        df = pd.DataFrame({"name": ["a"], "x": [np.nan], "y": [None],
                           "flag": [False]})
        assert markdown(df, self.COLS).splitlines()[2] == "| a | - | - | False |"

    def test_empty_frame_is_header_and_separator(self):
        df = pd.DataFrame({"name": [], "x": [], "y": [], "flag": []})
        assert markdown(df, self.COLS).count("\n") == 1

    def test_verdicts(self):
        assert verdicts([]) == "Shape checks: all hold."
        assert verdicts(["a 1", "b 2"]).splitlines()[1:] == ["- a 1", "- b 2"]


def _check(case):
    return TABLES[case.split("-")[0]].check


@pytest.mark.parametrize("name", CASES)
def test_check_passes_a_passing_frame(name):
    assert _check(name)(CASES[name][0]) == []


@pytest.mark.parametrize("name", CASES)
def test_check_fails_a_failing_frame_with_its_numbers(name):
    _, failing, numbers = CASES[name]
    failures = _check(name)(failing)
    assert len(failures) == len(numbers)
    for failure, number in zip(failures, numbers):
        assert number in failure


@pytest.mark.parametrize("name", TABLES)
def test_committed_results_pass_their_check(name):
    assert TABLES[name].check(pd.read_csv(RESULTS / f"{name}.csv")) == []


@pytest.mark.parametrize("name", TABLES)
def test_committed_markdown_renders_the_committed_csv(name):
    """Each ``results/*.md`` is the job's output for its CSV: the table,
    then the check's verdicts."""
    table = TABLES[name]
    df = pd.read_csv(RESULTS / f"{name}.csv")
    want = f"{markdown(df, table.columns)}\n\n{verdicts(table.check(df))}\n"
    assert (RESULTS / f"{name}.md").read_text(encoding="utf-8") == want
