"""Extract: materialize the video stream as Spark data (paper Figure 1).

Real deployments pull H.264 off cameras; our substrate materializes the
*segment stream* — one row per video segment with its latent content
state — either as a Spark DataFrame (for batch transforms and offline
profiling) or as a directory of parquet batch files (the file source the
Structured-Streaming V-ETL job ingests).

Both are built on the driver by one row builder, :func:`trace_to_pandas`,
so every Extract gives a segment the same row.
"""
from __future__ import annotations

import os

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.video.content import ContentTrace
from repro.workloads.base import Workload


def segment_schema(wl: Workload) -> str:
    dims = ", ".join(f"{d} double" for d in wl.dims)
    return f"segment_id long, t_start double, {dims}, mult double"


def trace_to_pandas(wl: Workload, trace: ContentTrace) -> pd.DataFrame:
    """One row per segment: id, arrival time, difficulty dims, multiplier."""
    pdf = pd.DataFrame(trace.difficulty, columns=list(wl.dims))
    pdf.insert(0, "segment_id", trace.global_ids())
    pdf.insert(1, "t_start", trace.times_s())
    pdf["mult"] = trace.work_multiplier
    return pdf


def segments_df(
    spark: SparkSession,
    wl: Workload,
    *,
    seed: int,
    n_days: float,
    start_day: float = 0.0,
    n_partitions: int = 8,
) -> DataFrame:
    """Batch Extract: the window's rows, built once on the driver, as one
    Arrow relation round-robin repartitioned to ``n_partitions`` balanced
    partitions.  The windows read here are at most a day (about 43k rows,
    2 MB, built in milliseconds), while a Python task costs a worker round
    trip of about 0.2 s; the JVM decodes the rows and runs the Exchange,
    so no Python worker runs before the Transform."""
    pdf = trace_to_pandas(
        wl, wl.content(seed=seed, n_days=n_days, start_day=start_day)
    )
    return spark.createDataFrame(pdf, schema=segment_schema(wl)).repartition(
        n_partitions
    )


def write_stream_batches(
    spark: SparkSession,
    wl: Workload,
    out_dir: str,
    *,
    seed: int,
    n_days: float,
    start_day: float = 0.0,
    batch_segments: int = 64,
) -> list[str]:
    """Write the segment stream as ordered parquet batch files.

    Each file is one micro-batch of arriving video; the Structured
    Streaming job tails the directory.  Returns the file paths in
    arrival order.
    """
    os.makedirs(out_dir, exist_ok=True)
    trace = wl.content(seed=seed, n_days=n_days, start_day=start_day)
    pdf = trace_to_pandas(wl, trace)
    paths = []
    for bi, lo in enumerate(range(0, len(pdf), batch_segments)):
        chunk = pdf.iloc[lo : lo + batch_segments]
        path = os.path.join(out_dir, f"batch-{bi:06d}.parquet")
        chunk.to_parquet(path, index=False)
        paths.append(path)
    return paths
