"""Extract: materialize the video stream as Spark data (paper Figure 1).

Real deployments pull H.264 off cameras; our substrate materializes the
*segment stream* — one row per video segment with its latent content
state — either as a Spark DataFrame (for batch transforms and offline
profiling) or as a directory of parquet batch files (the file source the
Structured-Streaming V-ETL job ingests).

Rows are generated with ``spark.range`` + ``mapInPandas`` so workers
regenerate their slice deterministically from (workload, seed) instead
of shipping the trace from the driver.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.video.content import ContentTrace, segment_range
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
    """Distributed Extract: one task per segment range.

    The segments covering the window are cut into ``n_partitions``
    ranges and ``spark.range`` gives each task the id of one of them;
    the task regenerates exactly that range, since content is a function
    of (seed, segment id).  No rows are shipped to the tasks, no
    exchange runs, and the rows do not depend on the partitioning.
    """
    gid0, n = segment_range(wl.seg_len, n_days, start_day)
    bounds = np.unique(
        np.linspace(gid0, gid0 + n, n_partitions + 1).round().astype(int)
    )
    n_ranges = len(bounds) - 1

    def gen(batches):
        for b in batches:
            for i in b["id"]:
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                yield trace_to_pandas(
                    wl, wl.segments(seed=seed, gid0=lo, n=hi - lo)
                )

    return spark.range(0, n_ranges, 1, n_ranges).mapInPandas(
        gen, schema=segment_schema(wl)
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
