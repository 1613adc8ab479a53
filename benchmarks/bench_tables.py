"""Scaled runs of Tables 2-6, each held to its table's shape check.

The full-scale tables come from ``jobs/run_table*.py``, which print the
same checks' verdicts.  Here each table runs at a bench scale, is timed,
and must pass its row-count sanity and its ``Table.check``.
"""
from __future__ import annotations

import pytest

from repro.exp import sweep, table2, table3, table4, table5

# Full diurnal cycles: shorter windows cover only part of a day, which
# is unrepresentative for systems that ration resources over the day.
DAYS = {"covid": (4.0, 1.0), "mot": (4.0, 1.0),
        "mosei-high": (2.0, 0.5), "mosei-long": (2.0, 0.5)}
TABLE2_CELLS = [
    {"workload": w, "method": m, "vcpus": 8, "train_days": tr, "test_days": te}
    for w, (tr, te) in DAYS.items() for m in ("skyscraper", "static")
] + [{"workload": "covid", "method": "chameleon", "vcpus": 8,
      "train_days": 4.0, "test_days": 1.0}]
# id -> (table, scaled run, row count); Table 3's id names its fit path
SCALED = {
    "table2-8vcpus": (table2.TABLE, lambda: sweep.run_grid(TABLE2_CELLS), 9),
    "table3-in-process-4-day-fit": (
        table3.TABLE, lambda: table3.run_table3(None, train_days=4.0), 5),
    "table4": (
        table4.TABLE, lambda: table4.run_table4(None, vcpus=8, test_days=0.5),
        5),
    "table5": (table5.TABLE5, lambda: table5.run_table5(
        workloads=("covid",), train_days=6.0, test_days=2.0,
        horizons=(0.5, 1.0, 2.0)), 3),
    "table6": (table5.TABLE6, lambda: table5.run_table6(
        train_days=6.0, test_days=2.0, input_days=(0.5, 1.0), splits=(1, 8)),
        4),
}


@pytest.mark.parametrize("case", SCALED)
def test_table_shape(benchmark, case):
    table, run, n_rows = SCALED[case]
    df = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(df) == n_rows
    if "quality_pct" in df:
        assert ((0 < df.quality_pct) & (df.quality_pct <= 100)).all()
    assert table.check(df) == []
