"""Spark-parallel experiment sweeps: one task per offline artifact.

A table is a grid of independent simulation cells whose offline work is
shared: cells with the same ``runs.artifact_key`` need the same fitted
model or training side (the paper's offline phase runs once per source,
the online phase many times).  A sweep runs one Spark job with one task
per key: the task builds the key's artifact from its own training trace,
then runs the key's cells in grid order, each generating only its test
trace, so no cell waits for another key's artifact.  Rows travel back
as JSON with their grid index, and the driver restores grid order.
``run_grid_local`` runs the same per-key groups serially in-process.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import SparkSession

from repro.exp import runs


def group_cells(grid: list[dict]) -> dict[tuple, list[int]]:
    """Grid indices of each distinct artifact key, in grid order; keys in
    order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(grid):
        groups.setdefault(runs.artifact_key(params), []).append(i)
    return groups


def run_group(key: tuple, cells: list[dict]) -> list[dict]:
    """Rows of ``cells``, which all have artifact ``key``, in order; the
    artifact is built once."""
    art = runs.build_artifact(key)
    # looked up per call, so a wrapper installed on the module sees every cell
    return [runs.run_one({**params, "artifact": art}) for params in cells]


def run_grid_local(grid: list[dict]) -> pd.DataFrame:
    rows: list = [None] * len(grid)
    for key, idx in group_cells(grid).items():
        for i, row in zip(idx, run_group(key, [grid[i] for i in idx])):
            rows[i] = row
    return pd.DataFrame(rows)


def run_grid_spark(spark: SparkSession, grid: list[dict]) -> pd.DataFrame:
    """Run the grid as one Spark task per artifact key; returns all rows,
    in grid order."""
    if not grid:
        return pd.DataFrame()
    groups = list(group_cells(grid).items())

    def task(group):
        key, idx = group
        rows = run_group(key, [grid[i] for i in idx])
        return [(i, json.dumps(row, default=float)) for i, row in zip(idx, rows)]

    # one key per partition, hence per task
    pairs = spark.sparkContext.parallelize(groups, len(groups)).flatMap(task)
    return pd.DataFrame([json.loads(row) for _, row in sorted(pairs.collect())])


def run_grid(grid: list[dict], spark: SparkSession | None = None) -> pd.DataFrame:
    if spark is None:
        return run_grid_local(grid)
    return run_grid_spark(spark, grid)
