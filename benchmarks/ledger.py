"""Write the BENCH ledger: one JSON file of before/after numbers per change.

Usage (from anywhere)::

    python3 benchmarks/ledger.py --pr 7 [--root <checkout>] [--out BENCH_7.json]
    python3 benchmarks/ledger.py --pr 11 --parent <commit> [--out BENCH_11.json]

Without ``--parent`` it measures the checkout at ``--root`` (default:
this repository) and records, in ``BENCH_<pr>.json`` at that root unless
``--out`` says otherwise:

- perfbench ``--trace 0`` on every workload of ``BENCHMARK.json`` over
  the seeds in ``SEEDS``: each end-to-end metric's per-run values,
  median and Q1-Q3, the ``report`` lines, and the ops attempted and
  failed;
- perfbench ``--trace 1`` on seed 0: the per-layer metrics;
- the wall time of the full-scale ``jobs/run_table2.py`` and a sha256 of
  the CSV it wrote (kept as ``.ledger_work/table2.csv``), so two ledgers
  show whether the table moved;
- the Tier-1 suite's wall time and pass/fail counts;
- ``nproc``, memory, ``src_sha256`` and ``cpu_steal_share`` as perfbench
  reports them.

With ``--parent`` it exports that commit with ``git archive`` and runs
perfbench ``--trace 0`` on every workload of ``BENCHMARK.json`` in
``PAIRS`` pairs: the parent and ``--root`` on the same seed, the side
that goes first alternating, the seeds cycling through ``SEEDS``.  Per
workload it records every pair's values and the per-pair ratio
(change / parent) of each end-to-end metric, and per metric both sides'
median and Q1-Q3, the median ratio and the pairs the change won and
lost (ties count for neither).  It also runs ``TRACE_PAIRS`` pairs of
perfbench ``--trace 1`` per workload on ``TRACE_SEED`` and compares each
per-layer metric the same way; times each of ``KERNELS``, a program
kernel called in-process, in ``KERNEL_PAIRS`` pairs; times the
full-scale ``jobs/run_table2.py`` in ``TABLE2_PAIRS`` pairs and records
both CSV digests; and records both sides' ``src_sha256`` as perfbench
reports it.

It reads perfbench's stdout only and changes neither ``perfbench/`` nor
``BENCHMARK.json``.  Runs are sequential, one process tree at a time.
Not a pytest file: pytest collects only ``bench_*.py`` here.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

SEEDS = (0, 1, 2, 3, 4)
PAIRS = 10  # perfbench pairs per workload with --parent
TABLE2_PAIRS = 5  # full-scale jobs/run_table2.py pairs with --parent
# even, so that each side goes first in half of the pairs
TRACE_PAIRS = 4  # perfbench --trace 1 pairs per workload with --parent
KERNEL_PAIRS = 6  # pairs per entry of KERNELS with --parent
TRACE_SEED = 0
# name -> (set-up, timed statement), run in a fresh interpreter per tree
_TRAIN = ("from repro.workloads import get_workload\n"
          "wl = get_workload({!r})\n"
          "train = wl.content(seed=0, n_days=wl.train_days)\n")
_FIT_Q = ("from repro.core.categories import quality_vectors_numpy, "
          "sample_segment_indices\n"
          "from repro.core.kmeans import kmeans\n"
          "from repro.core.offline import filter_knob_configs\n"
          "configs = filter_knob_configs(wl, train, seed=0)\n"
          "idx = sample_segment_indices(train, sample_frac=0.05, seed=0)\n"
          "q = quality_vectors_numpy(wl, train, configs, idx, seed=0)\n")
KERNELS = {
    "mean_quality_all_configs_covid_16d_s": (
        _TRAIN.format("covid"), "wl.mean_quality(wl.all_configs(), train)"),
    "mean_quality_all_configs_mot_16d_s": (
        _TRAIN.format("mot"), "wl.mean_quality(wl.all_configs(), train)"),
    "kmeans_fit_covid_seed0_s": (
        _TRAIN.format("covid") + _FIT_Q, "kmeans(q, 3, seed=0)"),
    "kmeans_fit_mot_seed0_s": (
        _TRAIN.format("mot") + _FIT_Q, "kmeans(q, 3, seed=0)"),
}
# the Tier-1 command of ROADMAP.md, without its outer timeout
TIER1 = [sys.executable, "-m", "pytest", "tests/", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def quartiles(values: list[float]) -> dict:
    """Median and Q1-Q3 (inclusive method, so 2 runs give a range)."""
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def env_for(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


def perfbench(root: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run; its env line, report lines and final JSON line.
    Git is hidden from perfbench, so its env line names the tree by its
    ``src_sha256`` (its digest of ``src/**/*.py``): a commit would name an
    export by the repository around it, and an uncommitted change not at
    all."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(env_for(root), GIT_DIR=os.devnull)
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                       text=True)
    wall = time.perf_counter() - t0
    lines = p.stdout.splitlines()
    out = {"seed": seed, "exit": p.returncode, "wall_s": round(wall, 2),
           "env": {}, "report": {}, "result": None}
    for line in lines:
        if line.startswith('{"env"'):
            out["env"] = json.loads(line)["env"]
        elif line.startswith("report "):
            _, _, name, _, value, *unit = line.split()
            out["report"][name] = float(value)
    if lines and lines[-1].startswith("{"):
        out["result"] = json.loads(lines[-1])
    if out["result"] is None:
        out["stderr_tail"] = p.stderr[-2000:]
    return out


def summarize_runs(runs: list[dict]) -> dict:
    ok = [r for r in runs if r["result"]]
    names = ok[0]["result"]["metrics"] if ok else {}
    metrics = {}
    for name, m in names.items():
        vals = [r["result"]["metrics"][name]["value"] for r in ok]
        metrics[name] = {"unit": m["unit"], "values": vals, **quartiles(vals)}
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": [bool(r["result"] and r["result"]["correct"]) for r in runs],
        "failed_ops": [r["result"]["failed"] if r["result"] else None
                       for r in runs],
        "metrics": metrics,
        "report": [r["report"] for r in runs],
        "cpu_steal_share": [r["env"].get("cpu_steal_share") for r in runs],
    }


def table2_full(root: str, csv: str) -> dict:
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "jobs/run_table2.py", "--out", csv],
                       cwd=root, env=env_for(root), capture_output=True,
                       text=True)
    wall = time.perf_counter() - t0
    out = {"exit": p.returncode, "wall_s": round(wall, 2)}
    if p.returncode == 0:
        with open(csv, "rb") as f:
            out["csv_sha256"] = hashlib.sha256(f.read()).hexdigest()
    else:
        out["stderr_tail"] = p.stderr[-2000:]
    return out


def kernel(root: str, setup: str, stmt: str) -> float | None:
    """Seconds of one call of ``stmt`` after ``setup``, in a fresh
    interpreter on ``root``'s program; None if it failed."""
    code = (f"import time\n{setup}t0 = time.perf_counter()\n{stmt}\n"
            "print(time.perf_counter() - t0)\n")
    p = subprocess.run([sys.executable, "-c", code], cwd=root,
                       env=env_for(root), capture_output=True, text=True)
    return float(p.stdout.split()[-1]) if p.returncode == 0 else None


def driver_mem() -> str:
    """Half the machine's memory, 2-8 GB, as in ROADMAP.md's command."""
    with open("/proc/meminfo") as f:
        kb = next(int(line.split()[1]) for line in f
                  if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kb // 2097152))}g"


def tier1(root: str) -> dict:
    env = env_for(root)
    env.setdefault("SPARK_DRIVER_MEM", driver_mem())
    env.setdefault("SPARK_LOCAL_DIRS", "/tmp/spark-local")
    t0 = time.perf_counter()
    p = subprocess.run(TIER1, cwd=root, env=env, capture_output=True,
                       text=True)
    wall = time.perf_counter() - t0
    tail = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", tail)}
    return {"exit": p.returncode, "wall_s": round(wall, 2),
            "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("errors", 0)
            + counts.get("error", 0),
            "summary": tail}


def export(commit: str, repo: str, dest: str) -> str:
    """``git archive`` of ``commit`` unpacked at ``dest``; the full hash."""
    sha = subprocess.run(["git", "rev-parse", commit], cwd=repo, check=True,
                         capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", sha], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return sha


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' quartiles, the per-pair ratios change / parent, their
    median and the pairs the change won."""
    ratios = [c / p if p else None for p, c in zip(parent, change)]
    sign = 1 if better == "lower" else -1
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "ratios": ratios,
        "median_ratio": quartiles([r for r in ratios if r is not None])[
            "median"],
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "losses": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def alternate(n: int):
    """Pair ``j``'s order: the parent goes first on even ``j``."""
    for j in range(n):
        yield j, ("parent", "change") if j % 2 == 0 else ("change", "parent")


def paired(args, root: str, spec: dict, work: str) -> dict:
    trees = {"parent": os.path.join(work, "parent"), "change": root}
    commit = export(args.parent, root, trees["parent"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    ledger: dict = {
        "pr": args.pr, "parent": commit, "run_seconds": spec["run_seconds"],
        "paired": {}, "traced": {}, "kernels": {}}
    digests: dict = {side: set() for side in trees}
    for w in (w["name"] for w in spec["workloads"]):
        pairs = []
        for j, order in alternate(PAIRS):
            seed = SEEDS[j % len(SEEDS)]
            pair: dict = {"seed": seed, "first": order[0]}
            for side in order:
                r = perfbench(trees[side], w, seed, spec["run_seconds"], 0)
                digests[side].add(r["env"].get("src_sha256"))
                res = r["result"] or {}
                pair[side] = {
                    "correct": bool(res.get("correct")),
                    "failed_ops": res.get("failed"),
                    "metrics": {k: m["value"] for k, m in
                                res.get("metrics", {}).items()},
                    "cpu_steal_share": r["env"].get("cpu_steal_share")}
            print(f"{w} pair {j}: {pair['parent']['metrics']} -> "
                  f"{pair['change']['metrics']}", flush=True)
            pairs.append(pair)
        ok = [p for p in pairs if p["parent"]["metrics"]
              and p["change"]["metrics"]]
        ledger["paired"][w] = {"pairs": pairs, "metrics": {
            name: compare([p["parent"]["metrics"][name] for p in ok],
                          [p["change"]["metrics"][name] for p in ok], b)
            for name, b in better.items()}}
        traced = []
        for j, order in alternate(TRACE_PAIRS):
            pair = {"first": order[0]}
            for side in order:
                r = perfbench(trees[side], w, TRACE_SEED,
                              spec["run_seconds"], 1)
                res = r["result"] or {}
                pair[side] = {
                    "correct": bool(res.get("correct")),
                    "failed_ops": res.get("failed"),
                    "layers": {k: m["value"] for k, m in
                               res.get("metrics", {}).items()}}
            print(f"{w} traced pair {j}: correct "
                  f"{pair['parent']['correct']} -> {pair['change']['correct']}",
                  flush=True)
            traced.append(pair)
        ok = [p for p in traced if p["parent"]["layers"]
              and p["change"]["layers"]]
        ledger["traced"][w] = {"pairs": traced, "layers": {
            name: compare([p["parent"]["layers"][name] for p in ok],
                          [p["change"]["layers"][name] for p in ok], b)
            for name, b in layer_better.items()
            if ok and name in ok[0]["parent"]["layers"]}}
    for name, (setup, stmt) in KERNELS.items():
        pairs = []
        for j, order in alternate(KERNEL_PAIRS):
            pair = {"first": order[0]}
            for side in order:
                pair[side] = kernel(trees[side], setup, stmt)
            pairs.append(pair)
        print(f"kernel {name}: {pairs}", flush=True)
        ok = [p for p in pairs if None not in (p["parent"], p["change"])]
        ledger["kernels"][name] = {"pairs": pairs, "s": compare(
            [p["parent"] for p in ok], [p["change"] for p in ok], "lower")}
    # one digest per side unless a tree changed while it was measured
    ledger["src_sha256"] = {side: sorted(map(str, d))
                            for side, d in digests.items()}
    pairs = []
    for j, order in alternate(TABLE2_PAIRS):
        pair = {"first": order[0]}
        for side in order:
            csv = os.path.join(work, f"table2-{side}-{j}.csv")
            pair[side] = table2_full(trees[side], csv)
        print(f"table2 full pair {j}: {pair}", flush=True)
        pairs.append(pair)
    ok = [p for p in pairs if p["parent"]["exit"] == 0 == p["change"]["exit"]]
    ledger["table2_full"] = {"pairs": pairs, "wall_s": compare(
        [p["parent"]["wall_s"] for p in ok],
        [p["change"]["wall_s"] for p in ok], "lower")}
    return ledger


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--root", default=here)
    ap.add_argument("--out", default=None)
    ap.add_argument("--parent", help="commit to pair against --root")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    work = os.path.join(root, ".ledger_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = args.out or os.path.join(root, f"BENCH_{args.pr}.json")
    if args.parent:
        with open(out, "w") as f:
            json.dump(paired(args, root, spec, work), f, indent=1,
                      sort_keys=True)
        print(out)
        return 0

    ledger: dict = {"pr": args.pr, "seeds": list(SEEDS),
                    "run_seconds": seconds, "trace0": {}, "trace1": {}}
    envs = []
    for w in workloads:
        runs = [perfbench(root, w, s, seconds, 0) for s in SEEDS]
        envs += [r["env"] for r in runs if r["env"]]
        ledger["trace0"][w] = summarize_runs(runs)
        print(f"trace0 {w}: {ledger['trace0'][w]['correct']}", flush=True)
    for w in workloads:
        r = perfbench(root, w, TRACE_SEED, seconds, 1)
        ledger["trace1"][w] = {
            "seed": TRACE_SEED,
            "correct": bool(r["result"] and r["result"]["correct"]),
            "failed_ops": r["result"]["failed"] if r["result"] else None,
            "layers": {k: m["value"] for k, m in
                       (r["result"] or {}).get("metrics", {}).items()},
        }
        print(f"trace1 {w}: {ledger['trace1'][w]['correct']}", flush=True)
    ledger["table2_full"] = table2_full(root, os.path.join(work, "table2.csv"))
    print(f"table2 full: {ledger['table2_full']}", flush=True)
    ledger["tier1"] = tier1(root)
    print(f"tier1: {ledger['tier1']['summary']}", flush=True)
    first = envs[0] if envs else {}
    ledger["env"] = {
        "nproc": first.get("nproc"),
        "mem_total_gb": first.get("mem_total_gb"),
        "src_sha256": first.get("src_sha256"),
        "cpu_steal_share_max": max(
            (e["cpu_steal_share"] for e in envs
             if e.get("cpu_steal_share") is not None), default=None),
    }
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
