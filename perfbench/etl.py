"""etl-batch: a V-ETL backfill, Extract through Load, on Spark.

A *unit* backfills half a day of COVID: ``video.stream.segments_df``
(Extract), joined on ``segment_id`` with the knob switcher's per-segment
``config_id``, then ``etl.transform.transform_segments_switched``
(Transform), a parquet warehouse write and the four ``etl.load`` queries
(Load).  Consecutive units backfill consecutive half-days after the
``TRAIN_DAYS`` the switcher was fitted on.

The ``config_id`` sequence is the one the program produces: before each
unit, outside its timing, the benchmark runs ``sim.ingest.run_skyscraper``
over the same seed and content and captures the ``chosen_k`` that it
hands to ``sim.ingest.finalize``.

The traced run also drains a Structured-Streaming job
(``etl.streaming.run_streaming_job``) so the streaming layer is measured
by the traced run of this workload.
"""
from __future__ import annotations

import contextlib
import glob
import json
import os
import time
import traceback

import numpy as np
import pandas as pd
from pyspark.sql.streaming import StreamingQueryListener

from perfbench import common, instrument
from perfbench.spark_env import SparkEnv, TreeRssPeak
from perfbench.trace import Tracer

TRAIN_DAYS = 16.0  # the switcher's fit; the backfill starts after it
VCPUS = 8  # the cluster the switcher decides for, as in sim-covid8
DAY = 0.5  # days of video per unit
WARM_DAYS = 0.125  # days of video in the set-up warm-up
WARM_START_DAY = 1000.0
MIN_UNITS = 3
SAMPLE_EVERY = 8  # timed runs re-derive every 8th segment in pandas
N_PARTITIONS = 8
STREAM_BATCHES = 110  # p90 needs >= 100 triggers
STREAM_BATCH_SEGMENTS = 32
WARMUP_BATCHES = 4
STREAM_START_DAY = TRAIN_DAYS + 10.0  # after the training days

QUERIES = {
    "ev_counts_per_hour": (
        "SELECT CAST(floor(t_start/3600) AS BIGINT) AS hour, "
        "count(*) AS ev_count FROM det WHERE is_ev GROUP BY 1"),
    "detections_per_class": (
        "SELECT klass, count(*) AS n, round(avg(confidence), 6) AS avg_conf "
        "FROM det GROUP BY klass"),
    "segment_stats": (
        "SELECT segment_id, count(*) AS n_detections, "
        "round(avg(confidence), 6) AS avg_conf, "
        "max(CAST(is_ev AS INT)) AS any_ev FROM det GROUP BY segment_id"),
    "busiest_hours": (
        "SELECT CAST(floor(t_start/3600) AS BIGINT) AS hour, count(*) AS n "
        "FROM det GROUP BY 1 ORDER BY n DESC, hour ASC LIMIT 5"),
}
KEY = ["segment_id", "object_id"]


class Switcher:
    """Skyscraper fitted on ``TRAIN_DAYS`` of the run's seed.  Gives the
    knob switcher's per-segment decisions for any stretch of content."""

    def __init__(self, seed: int) -> None:
        from repro.core.fit import fit_skyscraper
        from repro.exp.runs import CLOUD_BUDGET_PER_VCPU_DAY
        from repro.sim.cluster import make_cluster
        from repro.workloads import get_workload

        self.seed = seed
        self.wl = get_workload("covid")
        self.cluster = make_cluster(VCPUS)
        self.budget = CLOUD_BUDGET_PER_VCPU_DAY * VCPUS
        train = self.wl.content(seed=seed, n_days=TRAIN_DAYS)
        self.fitted = fit_skyscraper(
            self.wl, seed=seed, train_days=TRAIN_DAYS, plan_days=2.0,
            in_days=2.0, trace=train)
        self.configs = self.fitted.configs  # what config_id indexes

    def backfill(self, start_day: float, days: float) -> dict:
        """The stretch ``[start_day, start_day + days)`` with the
        ``segment_id`` and ``config_id`` of every segment, taken from the
        ``chosen_k`` that ``run_skyscraper`` passes to ``finalize``."""
        from repro.sim import ingest

        trace = self.wl.content(seed=self.seed, n_days=days,
                                start_day=start_day)
        chosen = []
        finalize = ingest.finalize

        def capture(*a, chosen_k, **kw):
            chosen.append(np.asarray(chosen_k).copy())
            return finalize(*a, chosen_k=chosen_k, **kw)

        ingest.finalize = capture
        try:
            ingest.run_skyscraper(self.wl, self.fitted, self.cluster, trace,
                                  cloud_budget_usd_per_day=self.budget,
                                  seed=self.seed)
        finally:
            ingest.finalize = finalize
        dec = pd.DataFrame({"segment_id": trace.global_ids(),
                            "config_id": chosen[0].astype("int32")})
        return {"start_day": start_day, "days": days, "decisions": dec}


def run_lengths(dec: pd.DataFrame) -> np.ndarray:
    """Lengths of the runs of equal ``config_id`` in segment order."""
    k = dec.sort_values("segment_id")["config_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    return np.diff(np.r_[starts, len(k)])


def _queries():
    from repro.etl import load

    return {name: getattr(load, name) for name in QUERIES}


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def unit(run: common.Run, env: SparkEnv, sw: Switcher, bf: dict,
         tracer=None) -> dict:
    """Backfill the stretch ``bf`` (see :meth:`Switcher.backfill`);
    returns timings and the Load results.  With a tracer, Extract is
    cached and counted on its own so that Extract and Transform get
    separate spans."""
    from pyspark.sql import functions as F

    from repro.etl import transform
    from repro.video import stream

    spark = env.spark
    wh = os.path.join(run.work, f"warehouse-{bf['start_day']:g}")
    t0 = time.perf_counter()
    seg = stream.segments_df(spark, sw.wl, seed=run.seed, n_days=bf["days"],
                             start_day=bf["start_day"],
                             n_partitions=N_PARTITIONS)
    dec = F.broadcast(spark.createDataFrame(bf["decisions"]))
    seg = seg.join(dec, "segment_id")
    if tracer is not None:
        with tracer.span("video.stream.segments_df"):
            seg = seg.cache()
            seg.count()
    det = transform.transform_segments_switched(seg, sw.wl, sw.configs,
                                                seed=run.seed)
    with _span(tracer, "etl.transform"):
        det.write.mode("overwrite").parquet(wh)
    d = spark.read.parquet(wh)
    results = {}
    for name, fn in _queries().items():
        with _span(tracer, f"etl.load.{name}"):
            results[name] = fn(d).toPandas()
    wall = time.perf_counter() - t0
    if tracer is not None:
        seg.unpersist()
    return dict(bf, n=len(bf["decisions"]), wall_s=wall, results=results,
                warehouse=wh)


class _Collected:
    """A Load result that the timed unit already collected, in the shape
    ``repro.oracle.assert_equivalent`` reads (``toPandas()``)."""

    def __init__(self, pdf: pd.DataFrame) -> None:
        self.pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self.pdf


def check_unit(run: common.Run, sw: Switcher, u: dict,
               full: bool = False) -> dict:
    """Gate one unit: 1 op for the warehouse rows, 1 per Load query.

    The warehouse rows must equal pandas ``detect_segments`` on the same
    segments and configurations: every segment when ``full`` (the traced
    run), else every ``SAMPLE_EVERY``-th (a segment's detections are a
    pure function of seed, segment and configuration).  Each Load result
    the unit timed must equal DuckDB over the warehouse rows.  Returns
    the single-core pandas rates of the reference run."""
    from repro.cv import ops
    from repro.oracle import assert_equivalent
    from repro.video.stream import trace_to_pandas

    rows = trace_to_pandas(sw.wl, sw.wl.content(
        seed=run.seed, n_days=u["days"], start_day=u["start_day"]))
    rows = rows.merge(u["decisions"], on="segment_id", validate="1:1")
    if not full:
        pick = rows["segment_id"] % SAMPLE_EVERY == run.seed % SAMPLE_EVERY
        rows = rows[pick]
    got = pd.read_parquet(u["warehouse"])
    t0 = time.perf_counter()
    parts = [ops.detect_segments(sw.wl, sw.configs[int(c)], g, seed=run.seed)
             for c, g in rows.groupby("config_id")]
    single_s = time.perf_counter() - t0
    want = pd.concat(parts, ignore_index=True)
    mine = got[got["segment_id"].isin(rows["segment_id"])]
    where = f"day {u['start_day']:g}"
    try:
        pd.testing.assert_frame_equal(
            mine.sort_values(KEY).reset_index(drop=True),
            want.sort_values(KEY).reset_index(drop=True), check_dtype=False)
        run.op(True)
    except AssertionError as e:
        run.op(False, f"{where}: detections differ from pandas: {e}")
    for name, sql in QUERIES.items():
        try:
            assert_equivalent(_Collected(u["results"][name]), sql, det=got)
            run.op(True)
        except AssertionError as e:
            run.op(False, f"{where}: query {name} differs from DuckDB: {e}")
    return {"segments_per_s": len(rows) / single_s,
            "rows_per_s": len(want) / single_s}


def measure(run: common.Run) -> dict:
    # the switcher's fit and decisions are inputs: made before set-up
    sw = Switcher(run.seed)
    warm_bf = sw.backfill(WARM_START_DAY, WARM_DAYS)
    env = SparkEnv(run)
    # a few hours through the whole unit, so that first-job costs (JIT,
    # Arrow, content generation in the workers) are paid in set-up
    setup_s = env.setup(lambda env: unit(run, env, sw, warm_bf))
    if run.trace:
        return traced(run, env, sw)
    units = []
    t_measure = time.perf_counter()
    j = 0
    with TreeRssPeak() as rss:
        while (j < MIN_UNITS or time.perf_counter() - t_measure < run.seconds) \
                and run.elapsed() < run.deadline_s - 50:
            bf = sw.backfill(TRAIN_DAYS + j * DAY, DAY)
            try:
                units.append(unit(run, env, sw, bf))
            except Exception:
                run.attempted += 1 + len(QUERIES)
                run.failed += 1 + len(QUERIES)
                run.gate_errors.append(traceback.format_exc(limit=3))
            j += 1
    if not units:
        return {}
    rates = [check_unit(run, sw, u)["segments_per_s"] for u in units]
    run.note("cv.ops.detect_segments.segments_per_s", common.median(rates),
             "1/s")
    runs = np.concatenate([run_lengths(u["decisions"]) for u in units])
    configs = pd.concat([u["decisions"] for u in units])["config_id"]
    run.note("switcher.run_length_mean", runs.mean(), "segments")
    run.note("switcher.configs_used", configs.nunique(), "count")
    n = sum(u["n"] for u in units)
    wall = sum(u["wall_s"] for u in units)
    run.note("etl_segments_per_s", n / wall, "1/s")
    run.note("jvm_peak_rss_mb", rss.jvm_peak_mb, "MB")
    run.note("units", len(units), "count")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss.peak_mb,
        "unit_p50_ms": common.median([u["wall_s"] for u in units]) * 1e3,
        "seg_per_s": n / wall,
    }


def traced(run: common.Run, env: SparkEnv, sw: Switcher) -> dict:
    """Half-day 0 untraced, half-day 0 traced (stages materialized
    separately), then a traced streaming drain."""
    bf = sw.backfill(TRAIN_DAYS, DAY)
    ref = unit(run, env, sw, bf)
    tracer = Tracer()
    u = unit(run, env, sw, bf, tracer=tracer)
    rate = check_unit(run, sw, u, full=True)
    single = rate["segments_per_s"]
    transform_s = tracer.total_s("etl.transform")
    layers = {
        "cv.ops.detect_segments.segments_per_s": single,
        "cv.ops.detect_segments.rows_per_s": rate["rows_per_s"],
        "video.stream.segments_df_s": tracer.total_s("video.stream.segments_df"),
        "etl.transform.s": transform_s,
        "etl.transform.parallel_efficiency":
            u["n"] / transform_s / (env.slots * single),
        "trace.overhead_s": u["wall_s"] - ref["wall_s"],
    }
    for name in QUERIES:
        layers[f"etl.load.{name}_s"] = tracer.total_s(f"etl.load.{name}")
    layers.update(stream_drain(run, env, sw, tracer))
    layers["trace.spans"] = len(tracer.spans)
    tracer.dump(os.path.join(run.out, f"trace-{run.workload}-{run.seed}.json"),
                {"layers": layers})
    return layers


class _Progress(StreamingQueryListener):
    """Keeps every streaming progress event of the session."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        p = event.progress
        self.events.append({"batch": p.batchId, "rows": p.numInputRows,
                            "ms": dict(p.durationMs)})

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass


def stream_drain(run: common.Run, env: SparkEnv, sw: Switcher,
                 tracer: Tracer) -> dict:
    """Closed loop: every file exists before the query starts and
    ``maxFilesPerTrigger=1`` starts a micro-batch only after the last one
    committed.  Batches processed are compared with files written: the
    job stops silently on timeout, so a missing batch is a failed op."""
    from repro.core.planner import make_plan
    from repro.cv.ops import detect_segments
    from repro.etl import streaming
    from repro.video.stream import write_stream_batches

    wl, fitted = sw.wl, sw.fitted
    spark = env.spark
    seg_s = STREAM_BATCH_SEGMENTS * wl.seg_len
    hours = STREAM_BATCHES * seg_s / 3600.0
    plan = make_plan(fitted, fitted.train_hists, sw.cluster,
                     interval_s=hours * 3600.0, cloud_budget_usd=0.0)
    root = os.path.join(run.work, "stream")
    warm_in = os.path.join(root, "warm-in")
    in_dir, out_dir = os.path.join(root, "in"), os.path.join(root, "out")
    write_stream_batches(spark, wl, warm_in, seed=run.seed,
                         n_days=WARMUP_BATCHES * seg_s / 86400.0,
                         start_day=STREAM_START_DAY - 1.0,
                         batch_segments=STREAM_BATCH_SEGMENTS)
    files = write_stream_batches(spark, wl, in_dir, seed=run.seed,
                                 n_days=hours / 24.0, start_day=STREAM_START_DAY,
                                 batch_segments=STREAM_BATCH_SEGMENTS)
    streaming.run_streaming_job(spark, wl, fitted, plan.alpha, warm_in,
                                os.path.join(root, "warm-out"), seed=run.seed)
    listener = _Progress()
    spark.streams.addListener(listener)
    instrument.install_etl(tracer)
    try:
        t0 = time.perf_counter()
        with tracer.span("etl.streaming.run_streaming_job"):
            sw = streaming.run_streaming_job(
                spark, wl, fitted, plan.alpha, in_dir, out_dir,
                seed=run.seed, timeout_s=120.0)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    deadline = time.perf_counter() + 10
    while (sum(1 for e in listener.events if e["rows"]) < len(sw.history)
           and time.perf_counter() < deadline):
        time.sleep(0.05)
    spark.streams.removeListener(listener)
    processed = len(sw.history)
    for i in range(len(files)):
        run.op(i < processed, f"micro-batch {i} of {len(files)} not processed")
    # replay the switcher's decisions through detect_segments
    outs = sorted(glob.glob(os.path.join(out_dir, "detections-*.parquet")))
    bad = 0
    for f, o, h in zip(files, outs, sw.history):
        pdf = pd.read_parquet(f).sort_values("segment_id").reset_index(drop=True)
        want = detect_segments(wl, fitted.configs[h["config_id"]], pdf,
                               seed=run.seed)
        got = pd.read_parquet(o)
        try:
            pd.testing.assert_frame_equal(
                got.reset_index(drop=True), want.reset_index(drop=True),
                check_dtype=False)
        except AssertionError:
            bad += 1
    run.op(bad == 0 and len(outs) == processed,
           f"{bad} streamed batches differ from the replay")
    ev = [e for e in listener.events if e["rows"]]
    trig = [e["ms"].get("triggerExecution", 0) for e in ev] or [0.0]

    def med(key):
        xs = [e["ms"].get(key, 0) for e in ev]
        return common.median(xs) if xs else 0.0

    n_proc = tracer.n_calls("etl.streaming.process_batch")
    layers = {
        "etl.streaming.trigger_p50_ms": common.percentile(trig, 50),
        "etl.streaming.trigger_p90_ms": common.percentile(trig, 90),
        "etl.streaming.video_s_per_s": processed * seg_s / wall,
        "etl.streaming.add_batch_ms": med("addBatch"),
        "etl.streaming.process_batch_ms":
            tracer.total_s("etl.streaming.process_batch") / n_proc * 1e3
            if n_proc else 0.0,
        "etl.streaming.batches": processed,
    }
    for k in ("latestOffset", "walCommit", "queryPlanning", "getBatch",
              "commitOffsets"):
        layers[f"etl.streaming.overhead_ms.{k}"] = med(k)
    with open(os.path.join(run.out, f"stream-{run.seed}.json"), "w") as f:
        json.dump(listener.events, f)
    return layers
