"""Spark-parallel experiment sweeps, in two stages.

A table is a grid of independent simulation cells whose offline work is
shared: every cell with the same ``runs.artifact_key`` needs the same
fitted model or training-side ranking (the paper's offline phase runs
once per source, the online phase many times).

1. Stage 1 builds each distinct artifact once, one Spark task per key.
   Fit keys and training-side keys are separate tasks, so a workload's
   fit and its baseline ranking run side by side; each task generates
   its own training trace.
2. Stage 2 broadcasts the artifacts and runs the cells, exactly one per
   task; a cell generates only its test trace.

Parameter dicts and artifacts travel pickled; result rows travel as
JSON.  ``run_grid_local`` runs the same two stages serially in-process,
generating each training trace once.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark import RDD, SparkContext
from pyspark.sql import SparkSession


def run_grid_local(grid: list[dict]) -> pd.DataFrame:
    from repro.exp.runs import artifact_key, build_artifacts, run_one

    keys = [artifact_key(g) for g in grid]
    arts = build_artifacts(keys)
    return pd.DataFrame(
        [run_one({**g, "artifact": arts[k]}) for g, k in zip(grid, keys)]
    )


def one_per_partition(sc: SparkContext, items: list) -> RDD:
    """``items`` in order, exactly one per partition (hence per task)."""
    return sc.parallelize(items, len(items))


def run_grid_spark(spark: SparkSession, grid: list[dict]) -> pd.DataFrame:
    """Run every grid cell as its own Spark task after building the
    shared artifacts; returns all rows, in grid order."""
    from repro.exp.runs import artifact_key

    if not grid:
        return pd.DataFrame()
    sc = spark.sparkContext
    keys = [artifact_key(g) for g in grid]

    def build(key):
        from repro.exp.runs import build_artifact

        return key, build_artifact(key)

    built = one_per_partition(sc, list(dict.fromkeys(keys))).map(build)
    arts = sc.broadcast(dict(built.collect()))

    def cell(item):
        from repro.exp.runs import run_one

        params, key = item
        row = run_one({**params, "artifact": arts.value[key]})
        return json.dumps(row, default=float)

    try:
        rows = one_per_partition(sc, list(zip(grid, keys))).map(cell).collect()
    finally:
        arts.destroy()
    return pd.DataFrame([json.loads(r) for r in rows])


def run_grid(grid: list[dict], spark: SparkSession | None = None) -> pd.DataFrame:
    if spark is None:
        return run_grid_local(grid)
    return run_grid_spark(spark, grid)
