"""Spark Python daemon for the traced table2-grid run.

Selected with ``spark.python.daemon.module=perfbench.worker``: this
module installs the wrappers and then runs pyspark's own daemon, which
forks every Python worker from this process, so the wrappers are in
every worker.  Each grid cell runs under a fresh in-memory trace whose
summary travels back to the Spark driver in the cell's result row (key
``_trace``).
"""
from __future__ import annotations

import json

import repro.exp.runs as runs
from pyspark import daemon

from perfbench import instrument
from perfbench.trace import Tracer

_tracer = Tracer()
instrument.install_sim(_tracer)
_run_one = runs.run_one


def _traced_run_one(params: dict) -> dict:
    _tracer.spans.clear()
    _tracer.agg.clear()
    _tracer.counters.clear()
    with _tracer.span("exp.sweep.cell"):
        row = _run_one(params)
    _tracer.count("trace.spans", len(_tracer.spans))
    row["_trace"] = json.dumps(instrument.summarize(_tracer))
    return row


runs.run_one = _traced_run_one


if __name__ == "__main__":
    daemon.manager()
