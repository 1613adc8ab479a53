"""Tests for the adaptive Structured Streaming V-ETL job."""
from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pytest

from repro.core.planner import make_plan
from repro.cv.ops import detect_segments
from repro.etl.streaming import StreamingSwitcher, run_streaming_job
from repro.video.stream import trace_to_pandas, write_stream_batches


@pytest.fixture(scope="module")
def plan_alpha(covid_fit, cluster8):
    plan = make_plan(
        covid_fit,
        covid_fit.train_hists,
        cluster8,
        interval_s=3600.0,
        cloud_budget_usd=0.0,
    )
    return plan.alpha


class TestStreamingSwitcher:
    def test_processes_batches_and_adapts(self, covid, covid_fit, plan_alpha):
        sw = StreamingSwitcher(wl=covid, fitted=covid_fit, alpha=plan_alpha)
        tr = covid.content(seed=0, n_days=0.02, start_day=2.0)
        pdf = trace_to_pandas(covid, tr)
        for lo in range(0, len(pdf), 64):
            sw.process_batch(pdf.iloc[lo : lo + 64])
        assert len(sw.history) == int(np.ceil(len(pdf) / 64))
        used = {h["config_id"] for h in sw.history}
        assert len(used) >= 2  # adapted between configurations

    def test_history_records_counts(self, covid, covid_fit, plan_alpha):
        sw = StreamingSwitcher(wl=covid, fitted=covid_fit, alpha=plan_alpha)
        tr = covid.content(seed=0, n_days=0.005, start_day=2.0)
        pdf = trace_to_pandas(covid, tr)
        sw.process_batch(pdf)
        assert sw.history[0]["n_segments"] == len(pdf)
        assert sw.switcher.counts.sum() == 1


class TestStreamingJob:
    @pytest.fixture(scope="class")
    def job(self, spark, covid, covid_fit, plan_alpha, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream")
        in_dir, out_dir = str(root / "in"), str(root / "out")
        write_stream_batches(
            spark, covid, in_dir, seed=0, n_days=0.004, start_day=2.0,
            batch_segments=48,
        )
        switcher = run_streaming_job(
            spark, covid, covid_fit, plan_alpha, in_dir, out_dir, seed=0
        )
        return switcher, in_dir, out_dir

    def test_all_batches_processed(self, job, covid):
        switcher, in_dir, _ = job
        n_files = len(glob.glob(os.path.join(in_dir, "*.parquet")))
        assert len(switcher.history) == n_files

    def test_detections_written(self, spark, job):
        _, _, out_dir = job
        det = spark.read.parquet(os.path.join(out_dir, "*.parquet"))
        assert det.count() > 0
        assert "confidence" in det.columns

    def test_output_matches_replayed_decisions(self, spark, job, covid, covid_fit):
        """The streamed detections equal a batch re-run of the same
        per-batch configuration decisions (exactly-once semantics)."""
        switcher, in_dir, out_dir = job
        files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
        expected = []
        for f, h in zip(files, switcher.history):
            pdf = pd.read_parquet(f).sort_values("segment_id")
            cfg = covid_fit.configs[h["config_id"]]
            expected.append(detect_segments(covid, cfg, pdf, seed=0))
        expected = pd.concat(expected, ignore_index=True)
        got = (
            spark.read.parquet(os.path.join(out_dir, "*.parquet"))
            .toPandas()
            .sort_values(["segment_id", "object_id"])
            .reset_index(drop=True)
        )
        expected = expected.sort_values(
            ["segment_id", "object_id"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expected, check_dtype=False)

    def test_timeout_raises(self, spark, job, covid, covid_fit, plan_alpha,
                            tmp_path):
        """A stream that has not drained in ``timeout_s`` is stopped and
        reported, not returned as a truncated success."""
        _, in_dir, _ = job
        with pytest.raises(TimeoutError, match="batches"):
            run_streaming_job(
                spark, covid, covid_fit, plan_alpha, in_dir,
                str(tmp_path / "out"), seed=0, timeout_s=0.01,
            )
