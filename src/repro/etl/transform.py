"""V-ETL Transform as a Spark dataflow (paper Figure 1, middle box).

Maps the segment stream to the application-specific intermediate format
(detections) by running the simulated CV UDFs inside ``mapInPandas``.
Each segment carries its knob configuration in a ``config_id`` column
(the knob switcher's assignment; a constant column runs one fixed
configuration), and each partition batch groups by configuration before
invoking the UDFs — the distributed analogue of the Ray-actor dispatch
in the paper's implementation (Section 5.1).

The Transform is a stage of its own with one task per slot: its input
is hash-partitioned on ``segment_id`` to ``defaultParallelism``
partitions.  A Python operator costs a worker round trip per task
(about 140 ms of slot time on ``local[4]``, whatever it computes), and
the vectorized UDFs take a small share of that, so the task count, not
the kernel, bounds the stage.  The Exchange, unlike ``coalesce``, also
keeps the Transform's worker apart from the Extract's: chained Python
operators would keep two workers per task alive.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.cv.ops import DETECTION_SCHEMA, detect_segments
from repro.workloads.base import Config, Workload


def transform_segments_switched(
    seg_df: DataFrame,
    wl: Workload,
    configs: list[Config],
    *,
    seed: int,
) -> DataFrame:
    """Transform segments with per-segment configurations.

    ``seg_df`` must carry a ``config_id`` column indexing into
    ``configs`` (produced by replaying the knob switcher's decisions).
    """

    def run(batches):
        for b in batches:
            if not len(b):
                continue
            for cid, grp in b.groupby("config_id"):
                yield detect_segments(wl, configs[int(cid)], grp, seed=seed)

    slots = seg_df.sparkSession.sparkContext.defaultParallelism
    return seg_df.repartition(slots, "segment_id").mapInPandas(
        run, schema=DETECTION_SCHEMA)
