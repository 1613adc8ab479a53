"""One path for every paper table: run it, render it, check its shape.

A :class:`Table` holds as data what differs between Tables 2-6: how to
run it at full scale, its rendered columns and its shape check.  A check
takes the table's DataFrame and returns its failures, each with the
numbers behind it.  ``jobs/run_table*.py`` print the verdicts below the
markdown; ``benchmarks/bench_tables.py`` asserts there are none.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import pandas as pd


class Col(NamedTuple):
    """A rendered column: the DataFrame column, its header, a
    ``str.format`` template, and the digits it is rounded to first."""

    name: str
    header: str
    fmt: str = "{}"
    digits: int | None = None


@dataclass(frozen=True)
class Table:
    name: str  # the job's Spark app name and CSV stem, e.g. "table2"
    run: Callable[..., pd.DataFrame]  # full scale; takes a session if spark
    columns: tuple[Col, ...]
    check: Callable[[pd.DataFrame], list[str]]
    spark: bool = True


def markdown(df: pd.DataFrame, columns: tuple[Col, ...]) -> str:
    """A header, a separator and one line per row; a missing value
    renders as ``-``."""
    cells = [
        ["-" if pd.isna(v) else c.fmt.format(v) for v in
         (df[c.name] if c.digits is None else df[c.name].round(c.digits))]
        for c in columns
    ]
    lines = ["| " + " | ".join(c.header for c in columns) + " |",
             "|" + "---|" * len(columns)]
    lines += ["| " + " | ".join(row) + " |" for row in zip(*cells)]
    return "\n".join(lines)


def verdicts(failures: list[str]) -> str:
    """The lines a job prints below its table."""
    if not failures:
        return "Shape checks: all hold."
    return "\n".join(["Shape checks FAILED:"] + [f"- {f}" for f in failures])
