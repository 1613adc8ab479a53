"""Spark-parallel experiment sweeps.

A table is a grid of independent simulation runs; Spark distributes them
one run per partition (``mapInPandas`` over a DataFrame of JSON-encoded
parameter dicts).  Workers regenerate all data from seeds — nothing but
the parameter dicts and flat result rows crosses the wire.  A local
fallback exists for tests and environments without a session.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import SparkSession


def run_grid_local(grid: list[dict]) -> pd.DataFrame:
    from repro.exp.runs import run_one

    return pd.DataFrame([run_one(g) for g in grid])


def run_grid_spark(spark: SparkSession, grid: list[dict]) -> pd.DataFrame:
    """Run every grid cell as its own Spark task; returns all rows, in
    grid order."""
    if not grid:
        return pd.DataFrame()
    pdf = pd.DataFrame(
        {"i": range(len(grid)), "params": [json.dumps(g) for g in grid]}
    )
    df = spark.createDataFrame(pdf).repartition(len(grid), "i")

    def work(batches):
        from repro.exp.runs import run_one

        for b in batches:
            if not len(b):
                continue
            results = [
                json.dumps(run_one(json.loads(s)), default=float)
                for s in b["params"]
            ]
            yield pd.DataFrame({"i": b["i"].to_numpy(), "result": results})

    rows = df.mapInPandas(work, schema="i long, result string").collect()
    rows.sort(key=lambda r: r.i)
    return pd.DataFrame([json.loads(r.result) for r in rows])


def run_grid(grid: list[dict], spark: SparkSession | None = None) -> pd.DataFrame:
    if spark is None:
        return run_grid_local(grid)
    return run_grid_spark(spark, grid)
