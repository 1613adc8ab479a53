"""sim-covid8: COVID offline fit plus four online methods at 8 vCPUs.

One Python process, no Spark.  A run first pays the offline phase once:
generate ``TRAIN_DAYS`` of training content, fit Skyscraper and search
Static's configuration (``best_static_config``) over the training days.
A *unit* then runs Skyscraper, Static, Chameleon* and VideoStorm* over
the next ``TEST_DAYS``-day stretch of the test trace; consecutive units
take consecutive stretches.  The timed work of a unit is the four online
runs.  The offline steps are timed and reported, not gated: their cost
depends on the training data (KMeans iterations), so it is not steady
across seeds, and it would hide the per-segment decision loop.  Several
shorter units give a median that a few seconds of machine noise does
not move.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback

from perfbench import common, instrument
from perfbench.trace import Tracer

TRAIN_DAYS = 16.0
TEST_DAYS = 2.0  # days of test trace per unit (86,400 segments)
VCPUS = 8
MIN_UNITS = 5
METHODS = ("skyscraper", "static", "chameleon", "videostorm")


def warm() -> None:
    """First-call costs of every code path a unit takes, on tiny inputs."""
    from repro.baselines import chameleon, static, videostorm
    from repro.core.fit import fit_skyscraper
    from repro.sim.cluster import make_cluster
    from repro.sim.ingest import run_skyscraper
    from repro.workloads import get_workload

    wl, cluster = get_workload("covid"), make_cluster(VCPUS)
    train = wl.content(seed=0, n_days=1.0, start_day=500.0)
    test = wl.content(seed=0, n_days=0.05, start_day=501.0)
    fitted = fit_skyscraper(wl, seed=0, train_days=1.0, plan_days=0.125,
                            in_days=0.125, trace=train)
    run_skyscraper(wl, fitted, cluster, test, seed=0)
    for fn in (static.run_static, chameleon.run_chameleon,
               videostorm.run_videostorm):
        fn(wl, cluster, test, train, seed=0)


def setup_once(root: str) -> float:
    """Set-up as a new process pays it: start an interpreter, import the
    program and warm every code path a unit takes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "from perfbench import sim; sim.warm()"],
        env=env, check=True, timeout=60,
    )
    return time.perf_counter() - t0


def offline(seed: int) -> dict:
    """Training content, the Skyscraper fit and Static's configuration
    search, each timed."""
    from repro.baselines import static
    from repro.core import fit as fitmod
    from repro.sim.cluster import make_cluster
    from repro.workloads import get_workload

    wl = get_workload("covid")
    cluster = make_cluster(VCPUS)
    t0 = time.perf_counter()
    train = wl.content(seed=seed, n_days=TRAIN_DAYS)
    t1 = time.perf_counter()
    plan_days = min(2.0, TRAIN_DAYS / 8.0)
    fitted = fitmod.fit_skyscraper(
        wl, seed=seed, train_days=TRAIN_DAYS, plan_days=plan_days,
        in_days=plan_days, trace=train,
    )
    t2 = time.perf_counter()
    static_cfg = static.best_static_config(wl, cluster, train)
    t3 = time.perf_counter()
    return {"seed": seed, "wl": wl, "cluster": cluster, "train": train,
            "fitted": fitted, "static_cfg": static_cfg, "content_s": t1 - t0,
            "fit_s": t2 - t1, "static_search_s": t3 - t2}


def unit(off: dict, j: int) -> dict:
    """Run the four methods over test stretch ``j``; returns timings and
    the result rows."""
    from repro.baselines import chameleon, static, videostorm
    from repro.exp.runs import CLOUD_BUDGET_PER_VCPU_DAY
    from repro.sim import ingest

    s, wl, cluster, train = off["seed"], off["wl"], off["cluster"], off["train"]
    test = wl.content(seed=s, n_days=TEST_DAYS,
                      start_day=TRAIN_DAYS + j * TEST_DAYS)
    budget = CLOUD_BUDGET_PER_VCPU_DAY * VCPUS
    calls = {
        "skyscraper": lambda: ingest.run_skyscraper(
            wl, off["fitted"], cluster, test,
            cloud_budget_usd_per_day=budget, seed=s),
        "static": lambda: static.run_static(
            wl, cluster, test, train, seed=s, config=off["static_cfg"]),
        "chameleon": lambda: chameleon.run_chameleon(
            wl, cluster, test, train, seed=s),
        "videostorm": lambda: videostorm.run_videostorm(
            wl, cluster, test, train, seed=s),
    }
    out = {"j": j, "n": test.n_segments, "times": {}, "rows": {}}
    for m in METHODS:
        t = time.perf_counter()
        res = calls[m]()
        out["times"][m] = time.perf_counter() - t
        row = common.jsonable_row(res.to_row())
        row["cloud_budget_usd_per_day"] = budget if m == "skyscraper" else 0.0
        out["rows"][m] = row
    out["online_s"] = sum(out["times"].values())
    return out


def gate(run: common.Run, u: dict, golden: dict | None) -> None:
    """Count the unit's four runs against the gates."""
    want = (golden or {}).get(str(u["j"])) if run.seed == 0 else None
    for m in METHODS:
        row = u["rows"][m]
        errs = []
        if m == "skyscraper":
            if row["overflow"]:
                errs.append("skyscraper overflowed its buffer")
            allow = row["cloud_budget_usd_per_day"] * row["duration_days"]
            if row["cloud_usd"] > allow * (1 + 1e-9) + 1e-12:
                errs.append(f"cloud spend {row['cloud_usd']} > {allow}")
        if want is not None:
            errs += common.rows_equal([row], [want[m]])
        run.op(not errs, f"{m} unit {u['j']}: {errs}")


def measure(run: common.Run) -> dict:
    golden = common.load_golden(run, "sim-covid8.json")
    if run.trace:
        warm()
        return traced(run, golden)
    setups = [setup_once(run.root) for _ in range(3)]
    warm()  # this process pays the same set-up, outside all timings
    try:
        off = offline(run.seed)
        run.op(True)  # the offline phase returned
    except Exception:  # without a fit no unit can run
        run.op(False, traceback.format_exc(limit=3))
        return {}
    units = []
    t_measure = time.perf_counter()
    j = 0
    while (j < MIN_UNITS or time.perf_counter() - t_measure < run.seconds) \
            and run.elapsed() < run.deadline_s - 20:
        try:
            u = unit(off, j)
        except Exception:  # a unit that raises fails all its ops
            run.attempted += len(METHODS)
            run.failed += len(METHODS)
            run.gate_errors.append(traceback.format_exc(limit=3))
            j += 1
            continue
        gate(run, u, golden)
        units.append(u)
        j += 1
    peak_rss_mb = common.peak_rss_mb()
    if not units:
        return {}
    n = sum(u["n"] for u in units)
    sky = sum(u["times"]["skyscraper"] for u in units)
    base = sum(u["times"][m] for u in units for m in METHODS[1:])
    run.note("fit_s", off["fit_s"], "s")
    run.note("static_search_s", off["static_search_s"], "s")
    run.note("online_us_per_seg.skyscraper", sky / n * 1e6, "us")
    run.note("online_us_per_seg.baselines", base / n * 1e6, "us")
    run.note("units", len(units), "count")
    return {
        "setup_s": common.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "unit_p50_ms": common.median([u["online_s"] for u in units]) * 1e3,
        "seg_per_s": len(METHODS) * n / (sky + base),
    }


def traced(run: common.Run, golden) -> dict:
    """Fixed work so counts repeat: the offline phase and unit 0
    untraced, then the offline phase and units 0 and 1 traced; overhead =
    traced minus untraced offline phase and unit 0."""
    off = offline(run.seed)
    ref = unit(off, 0)
    gate(run, ref, golden)
    ref_wall = off["content_s"] + off["fit_s"] + off["static_search_s"] \
        + ref["online_s"]
    tracer = Tracer()
    instrument.install_sim(tracer)
    try:
        t = time.perf_counter()
        with tracer.span("perfbench.offline"):
            off = offline(run.seed)
        for j in range(2):
            with tracer.span("perfbench.unit"):
                u = unit(off, j)
            if j == 0:
                wall = time.perf_counter() - t
            gate(run, u, golden)
    finally:
        tracer.restore()
    layers = instrument.sim_layers(instrument.summarize(tracer))
    layers["trace.overhead_s"] = wall - ref_wall
    layers["trace.spans"] = len(tracer.spans)
    tracer.dump(os.path.join(run.out, f"trace-{run.workload}-{run.seed}.json"),
                {"layers": layers})
    return layers


def write_golden(run: common.Run) -> None:
    """Rows of units 0 .. MIN_UNITS-1 for the default seed."""
    import json

    off = offline(0)
    out = {str(j): unit(off, j)["rows"] for j in range(MIN_UNITS)}
    path = os.path.join(run.root, "perfbench", "golden", "sim-covid8.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
