"""Tests for the experiment harness (sweeps and table reproductions)."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.exp.paper_numbers import (
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
    paper_table2,
)
from repro.exp.runs import run_one
from repro.exp.sweep import run_grid_local, run_grid_spark
from repro.exp.report import markdown
from repro.exp.table2 import COLUMNS, build_grid, run_table2
from repro.exp.table5 import run_table5, run_table6

TINY = {"train_days": 1.0, "test_days": 0.25}
# two Skyscraper cells share a fit; Static and Chameleon* share the
# training side; all four share one training trace
MIXED = [
    {"workload": "covid", "method": m, "vcpus": v, "seed": 0, **TINY}
    for m, v in (
        ("skyscraper", 4), ("static", 4), ("skyscraper", 8), ("chameleon", 8)
    )
]
# two fit keys (n_categories None and 2) interleaved with one training key
INTERLEAVED = [
    MIXED[0], MIXED[1], {**MIXED[0], "n_categories": 2},
    MIXED[2], MIXED[3], {**MIXED[2], "n_categories": 2},
]


@pytest.fixture(scope="module")
def interleaved_spark(spark):
    """INTERLEAVED through ``run_grid_spark`` in its own job group: the
    rows, and the task count of every stage the grid ran."""
    sc = spark.sparkContext
    sc.setJobGroup("interleaved-grid", "INTERLEAVED")
    try:
        df = run_grid_spark(spark, INTERLEAVED)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    st = sc.statusTracker()
    tasks = [
        st.getStageInfo(stage).numTasks
        for job in st.getJobIdsForGroup("interleaved-grid")
        for stage in st.getJobInfo(job).stageIds
    ]
    return df, tasks


class TestRunOne:
    @pytest.mark.parametrize(
        "method", ["static", "chameleon", "videostorm", "optimum", "skyscraper"]
    )
    def test_methods_run(self, method):
        row = run_one(
            {"workload": "covid", "method": method, "vcpus": 8, **TINY}
        )
        assert row["method"] == method
        assert 0 <= row["quality_pct"] <= 100
        assert row["total_usd"] > 0

    @pytest.mark.parametrize(
        "method", ["static", "chameleon", "videostorm", "optimum"]
    )
    def test_standalone_equals_artifact_cell(self, method):
        """A standalone cell builds the same training side that a sweep
        hands its cells, every part of it."""
        from repro.exp.runs import artifact_key, build_artifact

        params = {"workload": "covid", "method": method, "vcpus": 8, **TINY}
        art = build_artifact(artifact_key(params))
        assert None not in (art.configs, art.peak_mult, art.mean_q)
        assert run_one(params) == run_one({**params, "artifact": art})

    @pytest.mark.parametrize(
        "key", ["classify_mode", "ground_truth_forecast", "plan_days",
                "enable_bufer"]
    )
    def test_unknown_parameter_fails_loudly(self, key):
        with pytest.raises(ValueError, match=key):
            run_one({"workload": "covid", "method": "skyscraper",
                     "vcpus": 8, **TINY, key: False})

    @pytest.mark.parametrize(
        "method", ["skyscraper", "static", "chameleon", "videostorm",
                   "optimum"]
    )
    def test_no_buffer_is_a_zero_buffer_cluster(self, method, monkeypatch):
        """``enable_buffer=False`` hands every method a cluster without
        a buffer."""
        from repro.exp import runs
        from repro.sim.cluster import Cluster

        buffers = []
        run = getattr(runs, f"run_{method}")

        def spy(*a, **kw):
            buffers.extend(x.buffer_bytes for x in a if isinstance(x, Cluster))
            return run(*a, **kw)

        monkeypatch.setattr(runs, f"run_{method}", spy)
        run_one({"workload": "covid", "method": method, "vcpus": 8,
                 **TINY, "enable_buffer": False})
        assert buffers == [0.0]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_one({"workload": "covid", "method": "magic", "vcpus": 4})

    def test_row_is_flat_and_json_safe(self):
        import json

        row = run_one(
            {"workload": "covid", "method": "static", "vcpus": 4, **TINY}
        )
        json.dumps(row, default=float)  # must not raise


class TestSweep:
    def test_local_grid(self):
        grid = [
            {"workload": "covid", "method": "static", "vcpus": v, **TINY}
            for v in (4, 8)
        ]
        df = run_grid_local(grid)
        assert len(df) == 2
        assert set(df.vcpus) == {4, 8}

    def test_spark_matches_local(self, spark):
        """Both return one row per cell, in grid order."""
        grid = [
            {"workload": "covid", "method": "static", "vcpus": v, **TINY}
            for v in (4, 8, 16, 32)
        ]
        local = run_grid_local(grid)
        dist = run_grid_spark(spark, grid)
        key = ["workload", "method", "vcpus"]
        want = [(g["workload"], g["method"], g["vcpus"]) for g in grid]
        assert list(local[key].itertuples(index=False, name=None)) == want
        assert list(dist[key].itertuples(index=False, name=None)) == want
        pd.testing.assert_series_equal(
            local["quality_pct"], dist["quality_pct"], rtol=1e-9
        )

    def test_empty_grid(self, spark):
        assert run_grid_spark(spark, []).empty

    def test_interleaved_keys_spark_equals_local(self, interleaved_spark):
        dist, _ = interleaved_spark
        key = ["workload", "method", "vcpus", "n_categories"]
        pd.testing.assert_frame_equal(dist[key], pd.DataFrame(INTERLEAVED)[key])
        local = run_grid_local(INTERLEAVED)
        pd.testing.assert_frame_equal(dist, local, check_exact=True)

    def test_local_builds_each_artifact_once(self, monkeypatch):
        from repro.exp import runs

        fits = Counter()
        fit = runs.fit_skyscraper

        def counted_fit(wl, **kw):
            fits[wl.name, kw["seed"], kw["train_days"], kw["n_categories"]] += 1
            return fit(wl, **kw)

        monkeypatch.setattr(runs, "fit_skyscraper", counted_fit)
        extra = {**MIXED[0], "n_categories": 2}
        df = run_grid_local(MIXED + [extra])
        assert len(df) == 5
        assert fits == {("covid", 0, 1.0, None): 1, ("covid", 0, 1.0, 2): 1}

    def test_one_task_per_artifact_key(self, interleaved_spark, monkeypatch):
        """The grid is one stage of one task per distinct key, and a key's
        cells run in grid order (the Spark task and ``run_grid_local``
        share ``sweep.run_group``)."""
        from repro.exp import runs

        _, tasks = interleaved_spark
        assert tasks == [3]
        order = []
        run = runs.run_one

        def recorded(params):
            order.append(INTERLEAVED.index(
                {k: v for k, v in params.items() if k != "artifact"}))
            return run(params)

        monkeypatch.setattr(runs, "run_one", recorded)
        run_grid_local(INTERLEAVED)
        assert order == [0, 3, 1, 4, 2, 5]


class TestTable2:
    def test_grid_mirrors_paper_rows(self):
        grid = build_grid()
        got = {(g["workload"], g["method"], g["vcpus"]) for g in grid}
        paper = {
            (r.workload, r.method, r.vcpus)
            for r in paper_table2().itertuples()
        }
        assert got == paper

    def test_paper_numbers_complete(self):
        p = paper_table2()
        assert len(p) == 51
        assert set(p.workload) == {"covid", "mot", "mosei-high", "mosei-long"}

    def test_tiny_run_and_format(self):
        df = run_table2(
            None, test_days_scale=0.02, workloads=["covid"]
        )
        assert len(df) == 11
        # cost columns are scaled back to the paper's full duration and
        # must match the paper's deterministic price model
        static = df[df.method == "static"]
        np.testing.assert_allclose(
            static.sort_values("vcpus").total_usd_full,
            static.sort_values("vcpus").paper_total_usd,
            rtol=0.01,
        )
        md = markdown(df, COLUMNS)
        assert md.count("\n") == len(df) + 1

    def test_cost_model_matches_paper_exactly(self):
        """onprem $/h = GC price / 1.8 over the test duration."""
        from repro.sim.cluster import GC_MACHINES

        for wl_days, wl in ((8.0, "covid"), (2.0, "mosei-high")):
            for name, (vcpus, price) in GC_MACHINES.items():
                expected = price * wl_days * 24 / 1.8
                paper_rows = paper_table2().query(
                    f"workload == '{wl}' and method == 'static' "
                    f"and vcpus == {vcpus}"
                )
                assert paper_rows.paper_total_usd.iloc[0] == pytest.approx(
                    expected, rel=0.01
                )


class TestTables56:
    def test_table5_tiny(self):
        df = run_table5(
            workloads=("covid",),
            train_days=2.0,
            test_days=1.0,
            horizons=(0.25, 0.5),
        )
        assert len(df) == 2
        assert (df.mae.dropna() >= 0).all()

    def test_table6_tiny(self):
        df = run_table6(
            train_days=2.0,
            test_days=1.0,
            input_days=(0.25,),
            splits=(1, 4),
        )
        assert len(df) == 2
        assert (df.mae.dropna() >= 0).all()

    def test_paper_constants_sane(self):
        assert PAPER_TABLE4[1] == 100.0
        assert PAPER_TABLE5["covid"][2] == 0.042
        assert min(PAPER_TABLE5["covid"], key=PAPER_TABLE5["covid"].get) == 2
        assert len(PAPER_TABLE6) == 20
