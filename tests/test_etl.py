"""Tests for the V-ETL Extract/Transform/Load dataflow.

Every relational result is verified against DuckDB through
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
def row_pools():
    """80 segment rows per workload from half a day at day 10: the 40
    with the most objects (hundreds on MOSEI-HIGH) and 40 spread over
    the rest."""
    pools = {}
    for name in ("covid", "mosei-high"):
        wl = get_workload(name)
        pdf = trace_to_pandas(wl, wl.content(seed=0, n_days=0.5, start_day=10.0))
        n_obj = objects_present(
            wl, pdf[list(wl.dims)].to_numpy(), pdf["mult"].to_numpy()
        )
        busiest = np.argsort(-n_obj, kind="stable")[:40]
        rest = np.setdiff1d(np.arange(len(pdf)), busiest)
        spread = rest[np.linspace(0, len(rest) - 1, 40).astype(int)]
        pools[name] = pdf.iloc[np.union1d(busiest, spread)].reset_index(
            drop=True
        )
    return pools


@st.composite
def detector_batches(draw):
    """(workload name, config index, seed, pool row indices)."""
    name = draw(st.sampled_from(["covid", "mosei-high"]))
    n_cfg = len(get_workload(name).all_configs())
    return (
        name,
        draw(st.integers(0, n_cfg - 1)),
        draw(st.integers(0, 3)),
        draw(st.lists(st.integers(0, 79), min_size=1, max_size=40,
                      unique=True)),
    )


def _detect(name, k, seed, pdf):
    wl = get_workload(name)
    return detect_segments(wl, wl.all_configs()[k], pdf, seed=seed)


# executed-plan operators that run a Python worker
PYTHON_OPERATORS = ("MapInPandas", "PythonMapInArrow", "ArrowEvalPython",
                    "BatchEvalPython")


def _executed_plan(df):
    """The executed plan's lines, without AQE's initial plan."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    return plan.split("== Initial Plan ==")[0].splitlines()


def _by_key(det):
    return det.sort_values(["segment_id", "object_id"]).reset_index(drop=True)


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

    def test_half_day_statistics(self, covid):
        """Over half a day of COVID, the counter-hash detector keeps the
        binomial detector's statistics: the count is within 1% of
        sum(n_present * acc) (about 4 standard deviations), the class
        and EV shares are within 0.01 (about 5) of their targets."""
        pdf = trace_to_pandas(covid, covid.content(seed=0, n_days=0.5,
                                                   start_day=16.0))
        cfg = covid.all_configs()[len(covid.all_configs()) // 2]
        det = detect_segments(covid, cfg, pdf, seed=0)
        diff, mult = pdf[list(covid.dims)].to_numpy(), pdf["mult"].to_numpy()
        acc = covid.observed_quality(
            [cfg], diff, pdf["segment_id"].to_numpy(), seed=0, mult=mult
        )[0] / covid.mass(diff, mult)
        mean = (objects_present(covid, diff, mult) * acc.clip(0, 1)).sum()
        assert abs(len(det) - mean) <= 0.01 * mean
        share = det["klass"].value_counts(normalize=True)
        for klass, p in (("car", 0.6), ("person", 0.3), ("bus", 0.1)):
            assert abs(share[klass] - p) <= 0.01
        assert abs(det.loc[det.klass == "car", "is_ev"].mean() - 0.12) <= 0.01
        assert not det.loc[det.klass != "car", "is_ev"].any()
        assert det.confidence.between(0.01, 1.0).all()

    def test_counter_range_checked(self, covid, seg_pdf):
        with pytest.raises(ValueError, match="counter range"):
            detect_segments(covid, covid.best_config(),
                            seg_pdf.assign(segment_id=1 << 40), seed=0)

    @settings(max_examples=40, deadline=None)
    @given(batch=detector_batches(), data=st.data())
    def test_split_and_permutation_invariant(self, row_pools, batch, data):
        """Consecutive parts of a batch, or its rows in any order, give
        the whole batch's detections."""
        name, k, seed, rows = batch
        pdf = row_pools[name].iloc[rows]
        whole = _detect(name, k, seed, pdf)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)),
                                         max_size=4)))
        bounds = [0, *cuts, len(rows)]
        parts = pd.concat(
            [_detect(name, k, seed, pdf.iloc[a:b])
             for a, b in zip(bounds[:-1], bounds[1:])],
            ignore_index=True,
        )
        pd.testing.assert_frame_equal(parts, whole)
        perm = data.draw(st.permutations(range(len(rows))))
        pd.testing.assert_frame_equal(
            _by_key(_detect(name, k, seed, pdf.iloc[perm])), _by_key(whole)
        )

    @settings(max_examples=40, deadline=None)
    @given(batch=detector_batches())
    def test_object_ids_run_per_segment(self, row_pools, batch):
        name, k, seed, rows = batch
        pdf = row_pools[name].iloc[rows]
        det = _detect(name, k, seed, pdf)
        wl = get_workload(name)
        n_obj = dict(zip(pdf["segment_id"], objects_present(
            wl, pdf[list(wl.dims)].to_numpy(), pdf["mult"].to_numpy())))
        for sid, ids in det.groupby("segment_id")["object_id"]:
            np.testing.assert_array_equal(ids.to_numpy(), np.arange(len(ids)))
            assert len(ids) <= n_obj[sid]

    @settings(max_examples=40, deadline=None)
    @given(batch=detector_batches(), data=st.data())
    def test_pure_function_of_seed_segment_config(self, row_pools, batch,
                                                  data):
        """A segment's detections are the same in any batch, next to
        segments run at any other configuration."""
        name, k, seed, rows = batch
        pool = row_pools[name]
        row = data.draw(st.sampled_from(rows))
        sid = pool["segment_id"].iloc[row]
        alone = _detect(name, k, seed, pool.iloc[[row]])
        whole = _detect(name, k, seed, pool.iloc[rows])
        pd.testing.assert_frame_equal(
            whole[whole.segment_id == sid].reset_index(drop=True), alone
        )
        others = [r for r in rows if r != row]
        k2 = data.draw(st.integers(0, len(get_workload(name).all_configs()) - 1))
        mixed = pd.concat(
            [_detect(name, k2, seed, pool.iloc[others]), alone],
            ignore_index=True,
        )
        pd.testing.assert_frame_equal(
            mixed[mixed.segment_id == sid].reset_index(drop=True), alone
        )

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


    def test_one_transform_task_per_slot(self, spark, covid):
        """On an 8-partition Extract, the Transform runs
        defaultParallelism tasks, its one Python operator behind a hash
        Exchange on ``segment_id``, and its rows do not depend on the
        input partitioning."""
        from pyspark.sql import functions as F

        configs = [covid.cheapest_config(), covid.best_config()]

        def transform(n_partitions):
            seg = segments_df(spark, covid, seed=0, n_days=0.02,
                              n_partitions=n_partitions).withColumn(
                "config_id", (F.col("segment_id") % 2).cast("int"))
            return transform_segments_switched(seg, covid, configs, seed=0)

        det = transform(8)
        assert det.rdd.getNumPartitions() == spark.sparkContext.defaultParallelism
        got = det.toPandas()
        plan = _executed_plan(det)
        python = [i for i, line in enumerate(plan)
                  if any(op in line for op in PYTHON_OPERATORS)]
        exchange = [i for i, line in enumerate(plan)
                    if "Exchange hashpartitioning(segment_id" in line]
        assert len(python) == 1 and len(exchange) == 1
        assert python[0] < exchange[0]
        pdf = trace_to_pandas(covid, covid.content(seed=0, n_days=0.02))
        want = pd.concat(
            [detect_segments(covid, configs[k],
                             pdf[pdf.segment_id % 2 == k], seed=0)
             for k in (0, 1)],
            ignore_index=True,
        )
        for other in (transform(1).toPandas(), want):
            pd.testing.assert_frame_equal(
                _by_key(got), _by_key(other), check_dtype=False
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
    def test_balanced_partitions_without_python(self, spark, covid,
                                                n_partitions):
        """The window is one relation, round-robin repartitioned: the
        partition sizes sum to the window and differ by at most one row
        per input slice, and no Python operator runs."""
        df = segments_df(
            spark, covid, seed=0, n_days=0.5, n_partitions=n_partitions
        )
        sizes = df.rdd.glom().map(len).collect()
        assert len(sizes) == n_partitions and sum(sizes) == 21_600
        assert max(sizes) - min(sizes) <= spark.sparkContext.defaultParallelism
        plan = _executed_plan(df)
        assert not [line for line in plan
                    if any(op in line for op in PYTHON_OPERATORS)]

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

    def test_write_stream_batches(self, spark, tmp_path):
        """The streamed files, in order, hold the batch Extract's rows:
        both Extracts share one row builder."""
        for name in ("covid", "mosei-high"):
            wl = get_workload(name)
            paths = write_stream_batches(
                spark, wl, str(tmp_path / name), seed=0, n_days=0.005,
                start_day=10.0, batch_segments=32,
            )
            n = wl.content(seed=0, n_days=0.005, start_day=10.0).n_segments
            assert len(paths) == -(-n // 32)
            streamed = pd.concat([pd.read_parquet(p) for p in paths],
                                 ignore_index=True)
            batch = (
                segments_df(spark, wl, seed=0, n_days=0.005, start_day=10.0)
                .toPandas()
                .sort_values("segment_id")
                .reset_index(drop=True)
            )
            assert len(streamed) == n
            pd.testing.assert_frame_equal(
                streamed, batch, check_dtype=False, check_exact=True
            )
