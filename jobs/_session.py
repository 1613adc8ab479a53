"""Shared SparkSession builder and table runner for the job entrypoints."""
from __future__ import annotations

import argparse
import os

from pyspark.sql import SparkSession

from repro.exp.report import Table, markdown, verdicts


def get_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def run_job(table: Table) -> None:
    """Run ``table`` at full scale, write its CSV to ``--out``, then print
    its markdown and the verdicts of its shape check."""
    ap = argparse.ArgumentParser(description=f"Reproduce {table.name}.")
    ap.add_argument("--out", default=f"results/{table.name}.csv")
    out = ap.parse_args().out
    if table.spark:
        spark = get_session(table.name)
        df = table.run(spark)
        spark.stop()
    else:
        df = table.run()
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    df.to_csv(out, index=False)
    print(markdown(df, table.columns))
    print()
    print(verdicts(table.check(df)))
