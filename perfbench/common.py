"""Shared helpers: run context, environment record, statistics, gates."""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

def cpu_jiffies() -> list[int]:
    """Aggregate CPU counters from /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


@dataclass
class Run:
    """One benchmark invocation: arguments, clock, counts and outputs."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    work: str  # scratch directory inside the checkout
    out: str  # persistent outputs (trace files) inside the checkout
    t_start: float = field(default_factory=time.perf_counter)
    cpu_start: list = field(default_factory=cpu_jiffies)
    attempted: int = 0
    failed: int = 0
    gate_errors: list = field(default_factory=list)
    report: dict = field(default_factory=dict)  # name -> (value, unit)
    spark_master: str | None = None
    resources: list = field(default_factory=list)  # objects with close()

    # hard wall-clock limit for a run is 180 s; leave room for teardown
    deadline_s: float = 150.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def op(self, ok: bool, what: str = "") -> None:
        """Count one attempted operation; a failed gate is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.gate_errors.append(what)

    def close(self) -> None:
        while self.resources:
            self.resources.pop().close()

    def note(self, name: str, value: float, unit: str) -> None:
        self.report[name] = (float(value), unit)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: int) -> float:
    """Linearly interpolated percentile ``q`` (1..99) of ``xs``."""
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=100, method="inclusive")[q - 1])


def source_id(root: str) -> dict:
    """Git commit when the checkout is a repository, else a digest of
    the program sources (the benchmark also runs from plain exports)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if sha.returncode == 0:
            return {"git_commit": sha.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return {"git_commit": None, "src_sha256": h.hexdigest()[:16]}


def environment(run: Run) -> dict:
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    now = cpu_jiffies()
    steal = None
    if len(now) > 7 and len(run.cpu_start) > 7:
        d = [a - b for a, b in zip(now, run.cpu_start)]
        # share of CPU time the hypervisor gave to other guests
        steal = round(d[7] / max(1, sum(d)), 4)
    env = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 1048576, 1),
        "spark_master": run.spark_master,
        "cpu_steal_share": steal,
        "python": sys.version.split()[0],
    }
    env.update(source_id(run.root))
    return env


def rows_equal(got: list[dict], want: list[dict], rtol: float = 1e-6) -> list[str]:
    """Compare result rows; floats within ``rtol``, NaN equal to NaN."""
    errs = []
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        for k, wv in w.items():
            gv = g.get(k)
            if isinstance(wv, float) or isinstance(gv, float):
                if wv is None or gv is None:
                    ok = wv is gv
                elif math.isnan(float(wv)) or math.isnan(float(gv)):
                    ok = math.isnan(float(wv)) and math.isnan(float(gv))
                else:
                    ok = math.isclose(float(gv), float(wv), rel_tol=rtol,
                                      abs_tol=1e-12)
            else:
                ok = gv == wv
            if not ok:
                errs.append(f"row {i} {k}: {gv!r} != golden {wv!r}")
    return errs


def load_golden(run: Run, name: str):
    path = os.path.join(run.root, "perfbench", "golden", name)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def jsonable_row(row: dict) -> dict:
    out = {}
    for k, v in row.items():
        out[k] = v.item() if hasattr(v, "item") else v  # numpy scalars
    return out
