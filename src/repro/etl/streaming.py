"""V-ETL as a Structured Streaming job with adaptive knob switching.

The production shape of the pipeline: a file-source stream of segment
micro-batches (one parquet file per batch of arriving video), a
``foreachBatch`` sink that

1. classifies the content of the incoming batch from the quality the
   *previous* batch's configuration reported (Eq. 5 — same reactive
   signal as the knob switcher, including the Type-B timing mismatch),
2. looks up the knob plan and picks the configuration with the largest
   planned-minus-used deficit (Eq. 6),
3. runs the Transform UDFs at that configuration and appends the
   detections to the warehouse directory.

Steps 1 and 2 are the simulator's :class:`~repro.core.switcher.KnobSwitcher`.

``maxFilesPerTrigger=1`` forces one micro-batch per arriving file so the
switching cadence matches the paper's every-few-seconds reactivity.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.fit import Fitted
from repro.core.switcher import KnobSwitcher
from repro.cv.ops import detect_segments, reported_quality
from repro.video.stream import segment_schema
from repro.workloads.base import Workload


@dataclass
class StreamingSwitcher:
    """Reactive per-batch knob switching state (driver-side, like the
    paper's parent-process components on top of Ray actors)."""

    wl: Workload
    fitted: Fitted
    alpha: np.ndarray  # (K, C) knob plan for the run
    seed: int = 0
    last_quality: float | None = None
    history: list = field(default_factory=list)
    switcher: KnobSwitcher = field(init=False)

    def __post_init__(self) -> None:
        # The job runs every task on its own executors and models no
        # buffer: each configuration has one placement, always feasible.
        self.switcher = KnobSwitcher(
            self.fitted.categories, [[0.0]] * len(self.fitted.configs)
        )
        self.switcher.set_plan(self.alpha)

    def classify(self) -> int:
        if self.last_quality is None:  # plan columns all sum to 1: no prior
            return 0
        return self.switcher.classify(self.last_quality)

    def process_batch(self, pdf: pd.DataFrame) -> pd.DataFrame:
        c = self.classify()
        k, _ = self.switcher.choose(c, lambda k, p: True)
        cfg = self.fitted.configs[k]
        det = detect_segments(self.wl, cfg, pdf, seed=self.seed)
        self.last_quality = reported_quality(self.wl, cfg, pdf, seed=self.seed)
        self.history.append(
            {"category": c, "config_id": k, "n_segments": len(pdf)}
        )
        return det


def run_streaming_job(
    spark: SparkSession,
    wl: Workload,
    fitted: Fitted,
    alpha: np.ndarray,
    in_dir: str,
    out_dir: str,
    *,
    seed: int = 0,
    timeout_s: float = 120.0,
) -> StreamingSwitcher:
    """Run the adaptive V-ETL Structured Streaming job over ``in_dir``.

    Processes every available batch file (availableNow trigger, one file
    per micro-batch), appending detections parquet to ``out_dir``.
    Returns the switcher with its per-batch decision history.  Raises
    :class:`TimeoutError` after stopping the query if it has not
    finished within ``timeout_s``.
    """
    os.makedirs(out_dir, exist_ok=True)
    switcher = StreamingSwitcher(wl=wl, fitted=fitted, alpha=alpha, seed=seed)

    stream = (
        spark.readStream.schema(segment_schema(wl))
        .option("maxFilesPerTrigger", 1)
        .parquet(in_dir)
    )

    def handle(batch_df, batch_id: int) -> None:
        pdf = batch_df.toPandas()
        if not len(pdf):
            return
        pdf = pdf.sort_values("segment_id").reset_index(drop=True)
        det = switcher.process_batch(pdf)
        det.to_parquet(
            os.path.join(out_dir, f"detections-{batch_id:06d}.parquet"),
            index=False,
        )

    query = (
        stream.writeStream.foreachBatch(handle)
        .option(
            "checkpointLocation", os.path.join(out_dir, "_checkpoint")
        )
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination(timeout_s)
    if query.isActive:
        query.stop()
        raise TimeoutError(
            f"streaming job over {in_dir} did not finish in {timeout_s} s; "
            f"stopped after {len(switcher.history)} batches"
        )
    return switcher
