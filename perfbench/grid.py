"""table2-grid: the 51 Table-2 cells through ``exp.sweep.run_grid_spark``.

One grid per run at 1/8 of the paper's test duration, on Spark
``local[<=4]``; a grid takes longer than a run's ``--seconds``.  The
grid runs in a SparkContext created for it, whose Python workers have
only imported the program, so every timed grid pays its offline fits
(``exp.runs.cached_fit`` is per worker process), as
``jobs/run_table2.py`` does in a fresh application.
"""
from __future__ import annotations

import json
import os
import time
import traceback

from perfbench import common, instrument
from perfbench.spark_env import SlotPoller, SparkEnv, TreeRssPeak

SCALE = 0.125
KEY = ("workload", "method", "vcpus")


def _grid(seed: int) -> list[dict]:
    from repro.exp.table2 import build_grid

    return build_grid(test_days_scale=SCALE, seed=seed)


def _run(env: SparkEnv, grid: list[dict], run: common.Run):
    """Run the grid; returns (rows, wall seconds).  A failed job leaves
    no rows, so every cell counts as failed."""
    from repro.exp import sweep

    t0 = time.perf_counter()
    try:
        df = sweep.run_grid_spark(env.spark, grid)
        rows = [common.jsonable_row(r) for r in df.to_dict("records")]
    except Exception:
        run.gate_errors.append(traceback.format_exc(limit=3))
        rows = []
    return rows, time.perf_counter() - t0


def _gate(run: common.Run, grid: list[dict], rows: list[dict]) -> None:
    golden = common.load_golden(run, "table2-grid.json")
    want = {tuple(r[k] for k in KEY): r for r in golden or []} \
        if run.seed == 0 else {}
    got = {tuple(r[k] for k in KEY): r for r in rows}
    for cell in grid:
        key = tuple(cell[k] for k in KEY)
        row = got.get(key)
        if row is None:
            run.op(False, f"cell {key} missing")
            continue
        errs = []
        if row["method"] == "skyscraper":
            if row["overflow"]:
                errs.append("skyscraper overflowed its buffer")
            allow = row["cloud_budget_usd_per_day"] * row["duration_days"]
            if row["cloud_usd"] > allow * (1 + 1e-9) + 1e-12:
                errs.append(f"cloud spend {row['cloud_usd']} > {allow}")
        if key in want:
            plain = {k: v for k, v in row.items() if k != "_trace"}
            errs += common.rows_equal([plain], [want[key]])
        elif want:
            errs.append("no golden row")
        run.op(not errs, f"cell {key}: {errs}")


def _segments(rows: list[dict]) -> float:
    from repro.workloads import get_workload

    return sum(r["duration_days"] * 86400.0 / get_workload(r["workload"]).seg_len
               for r in rows)


def _key(row: dict) -> tuple:
    return tuple(str(row[k]) for k in KEY)


def _gate_same(run: common.Run, first: list[dict], rows: list[dict]) -> None:
    """A repeated grid must reproduce the first grid's rows."""
    errs = common.rows_equal(
        [{k: v for k, v in r.items() if k != "_trace"}
         for r in sorted(rows, key=_key)],
        sorted(first, key=_key))
    run.op(not errs, f"repeated grid differs: {errs[:3]}")


def measure(run: common.Run) -> dict:
    env = SparkEnv(run)
    grid = _grid(run.seed)
    if run.trace:
        env.launch()
        return traced(run, env, grid)
    setup_s = env.setup()
    with TreeRssPeak() as rss:
        rows, wall = _run(env, grid, run)
    _gate(run, grid, rows)
    run.note("grid_wall_s", wall, "s")
    run.note("jvm_peak_rss_mb", rss.jvm_peak_mb, "MB")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss.peak_mb,
        "unit_p50_ms": wall * 1e3,
        "seg_per_s": _segments(rows) / wall if rows else 0.0,
    }


def traced(run: common.Run, env: SparkEnv, grid: list[dict]) -> dict:
    """An untraced grid, then a grid in a new context whose workers trace
    every cell."""
    env.session()
    first, ref_wall = _run(env, grid, run)
    _gate(run, grid, first)
    env.session(**{"spark.python.daemon.module": "perfbench.worker"})
    with SlotPoller(env.spark.sparkContext, env.slots) as poll:
        t0 = time.perf_counter()
        rows, wall = _run(env, grid, run)
        t1 = time.perf_counter()
    _gate(run, grid, rows)
    _gate_same(run, first, rows)
    summary: dict = {}
    cells = []
    for r in rows:
        s = json.loads(r.pop("_trace"))
        instrument.merge(summary, s)
        cells.append({"cell": [r[k] for k in KEY],
                      "s": s["exp.sweep.cell"][1], "summary": s})
    layers = instrument.sim_layers(summary)
    cell_s = [c["s"] for c in cells] or [0.0]
    util, tail = poll.utilization(t0, t1)
    layers.update({
        "exp.sweep.cell_s.sum": sum(cell_s),
        "exp.sweep.cell_s.max": max(cell_s),
        "exp.sweep.slot_utilization": util,
        "exp.sweep.tail_s": tail,
        "trace.overhead_s": wall - ref_wall,
        "trace.spans": int(summary.get("trace.spans", [0, 0])[1]),
    })
    path = os.path.join(run.out, f"trace-{run.workload}-{run.seed}.json")
    with open(path, "w") as f:
        json.dump({"layers": layers, "cells": cells,
                   "slot_samples": poll.samples}, f, default=float)
    return layers


def write_golden(run: common.Run) -> None:
    env = SparkEnv(run)
    env.setup()
    grid = _grid(0)
    rows, _ = _run(env, grid, run)
    rows = sorted(rows, key=_key)
    path = os.path.join(run.root, "perfbench", "golden", "table2-grid.json")
    with open(path, "w") as f:
        json.dump(rows, f, indent=1, sort_keys=True)
