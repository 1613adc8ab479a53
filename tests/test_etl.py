"""Tests for the V-ETL Extract/Transform/Load dataflow.

Every relational result is verified against DuckDB through
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.cv.ops import detect_segments, objects_present, reported_quality
from repro.etl.load import (
    busiest_hours,
    detections_per_class,
    detections_per_class as _dpc,
    ev_counts_per_hour,
    segment_stats,
)
from repro.etl.transform import transform_segments_switched
from repro.oracle import assert_equivalent
from repro.video.stream import segments_df, trace_to_pandas, write_stream_batches
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def seg_pdf(covid):
    tr = covid.content(seed=0, n_days=0.02)
    return trace_to_pandas(covid, tr)


@pytest.fixture(scope="module")
def det_df(spark, covid, seg_pdf):
    seg = spark.createDataFrame(seg_pdf.assign(config_id=0)).repartition(4)
    return transform_segments_switched(
        seg, covid, [covid.best_config()], seed=0
    ).cache()


class TestCvOps:
    def test_detections_deterministic(self, covid, seg_pdf):
        cfg = covid.best_config()
        a = detect_segments(covid, cfg, seg_pdf, seed=0)
        b = detect_segments(covid, cfg, seg_pdf, seed=0)
        pd.testing.assert_frame_equal(a, b)

    def test_partition_invariance(self, covid, seg_pdf):
        """Splitting the batch must produce the same detections."""
        cfg = covid.best_config()
        whole = detect_segments(covid, cfg, seg_pdf, seed=0)
        parts = pd.concat(
            [
                detect_segments(covid, cfg, seg_pdf.iloc[:100], seed=0),
                detect_segments(covid, cfg, seg_pdf.iloc[100:], seed=0),
            ],
            ignore_index=True,
        )
        pd.testing.assert_frame_equal(whole, parts)

    def test_better_config_detects_more(self, covid, seg_pdf):
        n_best = len(detect_segments(covid, covid.best_config(), seg_pdf, seed=0))
        n_cheap = len(
            detect_segments(covid, covid.cheapest_config(), seg_pdf, seed=0)
        )
        assert n_best > n_cheap

    def test_confidence_bounds(self, covid, seg_pdf):
        det = detect_segments(covid, covid.best_config(), seg_pdf, seed=0)
        assert det.confidence.between(0, 1).all()
        assert set(det.klass) <= {"car", "person", "bus"}

    def test_objects_present_positive(self, covid, seg_pdf):
        n = objects_present(
            covid, seg_pdf[list(covid.dims)].to_numpy(), seg_pdf["mult"].to_numpy()
        )
        assert (n >= 1).all()

    def test_reported_quality_scalar(self, covid, seg_pdf):
        q = reported_quality(covid, covid.best_config(), seg_pdf, seed=0)
        assert np.isfinite(q) and q > 0


class TestTransform:
    def test_schema(self, det_df):
        assert set(det_df.columns) == {
            "segment_id", "t_start", "object_id", "klass",
            "confidence", "is_ev",
        }

    def test_spark_matches_pandas(self, covid, spark, seg_pdf, det_df):
        expected = detect_segments(covid, covid.best_config(), seg_pdf, seed=0)
        got = det_df.toPandas()
        key = ["segment_id", "object_id"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            expected.sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )

    def test_switched_transform(self, covid, spark, seg_pdf):
        configs = [covid.cheapest_config(), covid.best_config()]
        pdf = seg_pdf.copy()
        pdf["config_id"] = np.arange(len(pdf)) % 2
        seg = spark.createDataFrame(pdf).repartition(4)
        det = transform_segments_switched(seg, covid, configs, seed=0)
        got = det.toPandas()
        # parity with per-config pandas reference
        parts = []
        for cid in (0, 1):
            parts.append(
                detect_segments(
                    covid, configs[cid], pdf[pdf.config_id == cid], seed=0
                )
            )
        expected = pd.concat(parts, ignore_index=True)
        key = ["segment_id", "object_id"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            expected.sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )


class TestLoadQueries:
    """Every Load query is checked against DuckDB (the oracle)."""

    def test_ev_counts(self, det_df):
        assert_equivalent(
            ev_counts_per_hour(det_df),
            "SELECT CAST(floor(t_start/3600) AS BIGINT) AS hour, "
            "count(*) AS ev_count FROM det WHERE is_ev GROUP BY 1",
            det=det_df,
        )

    def test_detections_per_class(self, det_df):
        assert_equivalent(
            detections_per_class(det_df),
            "SELECT klass, count(*) AS n, "
            "round(avg(confidence), 6) AS avg_conf FROM det GROUP BY klass",
            det=det_df,
        )

    def test_segment_stats(self, det_df):
        assert_equivalent(
            segment_stats(det_df),
            "SELECT segment_id, count(*) AS n_detections, "
            "round(avg(confidence), 6) AS avg_conf, "
            "max(CAST(is_ev AS INT)) AS any_ev FROM det GROUP BY segment_id",
            det=det_df,
        )

    def test_busiest_hours(self, det_df):
        assert_equivalent(
            busiest_hours(det_df, top=3),
            "SELECT CAST(floor(t_start/3600) AS BIGINT) AS hour, "
            "count(*) AS n FROM det GROUP BY 1 ORDER BY n DESC, hour ASC "
            "LIMIT 3",
            det=det_df,
        )

    def test_segment_stats_join_segments(self, spark, seg_pdf, det_df):
        """A two-table Load: per-segment stats joined back to the
        segments on ``segment_id``, grouped by ten-minute window."""
        from pyspark.sql import functions as F

        seg = spark.createDataFrame(seg_pdf)
        res = (
            segment_stats(det_df)
            .join(seg, "segment_id")
            .groupBy(F.floor(F.col("t_start") / 600).cast("long").alias("w"))
            .agg(
                F.count(F.lit(1)).alias("n_segments"),
                F.sum("n_detections").alias("n_detections"),
                F.round(F.avg("mult"), 6).alias("avg_mult"),
            )
        )
        assert_equivalent(
            res,
            "WITH stats AS (SELECT segment_id, count(*) AS n_detections "
            "FROM det GROUP BY segment_id) "
            "SELECT CAST(floor(t_start/600) AS BIGINT) AS w, "
            "count(*) AS n_segments, sum(n_detections) AS n_detections, "
            "round(avg(mult), 6) AS avg_mult "
            "FROM stats JOIN seg USING (segment_id) GROUP BY 1",
            det=det_df,
            seg=seg,
        )


class TestExtract:
    @pytest.mark.parametrize("name", ["covid", "mosei-high"])
    def test_segments_df_matches_trace(self, spark, name):
        # the batch and in-process Extracts give every segment the same
        # row, t_start included (start day 10 is off MOSEI's 7 s grid)
        wl = get_workload(name)
        df = segments_df(
            spark, wl, seed=0, n_days=0.02, start_day=10.0, n_partitions=4
        )
        got = df.toPandas().sort_values("segment_id").reset_index(drop=True)
        tr = wl.content(seed=0, n_days=0.02, start_day=10.0)
        expected = trace_to_pandas(wl, tr)
        pd.testing.assert_frame_equal(
            got, expected, check_dtype=False, check_exact=True
        )

    @pytest.mark.parametrize("n_partitions", [4, 8])
    def test_one_equal_range_per_partition(self, spark, covid, n_partitions):
        df = segments_df(
            spark, covid, seed=0, n_days=0.5, n_partitions=n_partitions
        )
        sizes = df.rdd.glom().map(len).collect()
        assert sizes == [21_600 // n_partitions] * n_partitions
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "Exchange" not in plan

    def test_partitioning_does_not_change_rows(self, spark, covid):
        a = (
            segments_df(spark, covid, seed=0, n_days=0.02, n_partitions=2)
            .toPandas()
            .sort_values("segment_id")
            .reset_index(drop=True)
        )
        b = (
            segments_df(spark, covid, seed=0, n_days=0.02, n_partitions=7)
            .toPandas()
            .sort_values("segment_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_write_stream_batches(self, spark, covid, tmp_path):
        paths = write_stream_batches(
            spark, covid, str(tmp_path / "in"), seed=0, n_days=0.005,
            batch_segments=32,
        )
        assert len(paths) == int(np.ceil(0.005 * 86400 / 2.0 / 32))
        pdf = pd.concat([pd.read_parquet(p) for p in paths])
        tr = covid.content(seed=0, n_days=0.005)
        assert len(pdf) == tr.n_segments
