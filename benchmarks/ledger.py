"""Write the BENCH ledger: parent/change pairs of every measurement.

Usage (from anywhere)::

    python3 benchmarks/ledger.py --pr 15 --parent <commit> [--root <dir>]

``--parent HEAD`` measures the committed tree against itself.

It exports ``--parent`` with ``git archive`` and measures that tree and
``--root`` (default: this repository) in pairs, the side that goes first
alternating (:func:`run_pairs`).  It writes ``BENCH_<pr>.json`` at the
root unless ``--out`` says otherwise, with one section per measurement:

- ``paired``: perfbench ``--trace 0`` on every workload of
  ``BENCHMARK.json``, ``PAIRS`` pairs, the seeds cycling through
  ``SEEDS``, each end-to-end metric compared;
- ``traced``: perfbench ``--trace 1``, ``TRACE_PAIRS`` pairs per
  workload on ``TRACE_SEED``, each per-layer metric compared;
- ``kernels``: each of ``KERNELS``, a program kernel timed in a fresh
  interpreter, ``KERNEL_PAIRS`` pairs;
- ``table2_full``: the full-scale ``jobs/run_table2.py``,
  ``TABLE2_PAIRS`` pairs, with each run's CSV sha256;
- ``tier1``: the Tier-1 suite, ``TIER1_PAIRS`` pairs, with its pass and
  fail counts.

Every side of a pair records its ``exit`` code and ``wall_s``, and on
failure ``stderr_tail``; a perfbench side also its ``report`` lines.
Each comparison (:func:`compare`) holds both sides' median and Q1-Q3,
the per-pair ratios change / parent, their median, the pairs the change
won and lost (ties count for neither), and ``dropped``: the pairs left
out because a side failed.  The ledger also records both sides'
``src_sha256`` and perfbench's ``nproc`` and memory (``env``).

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
from operator import itemgetter

SIDES = ("parent", "change")
SEEDS = (0, 1, 2, 3, 4)
# even pair counts, so that each side goes first in half of the pairs
PAIRS = 10  # perfbench --trace 0 pairs per workload
TRACE_PAIRS = 4  # perfbench --trace 1 pairs per workload
KERNEL_PAIRS = 6  # pairs per entry of KERNELS
TABLE2_PAIRS = 5  # full-scale jobs/run_table2.py pairs
TIER1_PAIRS = 2  # Tier-1 suite pairs
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
# half a day of COVID after its 16 training days, every 5th configuration
# on every 8th segment
_DETECT = ("from repro.cv.ops import detect_segments\n"
           "from repro.video.stream import trace_to_pandas\n"
           "from repro.workloads import get_workload\n"
           "wl = get_workload('covid')\n"
           "pdf = trace_to_pandas(wl, wl.content(seed=0, n_days=0.5, "
           "start_day=16.0))\n"
           "cfgs = wl.all_configs()[::5]\n"
           "mix = list(pdf.groupby(pdf['segment_id'] % len(cfgs)))\n")
KERNELS = {
    "mean_quality_all_configs_covid_16d_s": (
        _TRAIN.format("covid"), "wl.mean_quality(wl.all_configs(), train)"),
    "mean_quality_all_configs_mot_16d_s": (
        _TRAIN.format("mot"), "wl.mean_quality(wl.all_configs(), train)"),
    "kmeans_fit_covid_seed0_s": (
        _TRAIN.format("covid") + _FIT_Q, "kmeans(q, 3, seed=0)"),
    "kmeans_fit_mot_seed0_s": (
        _TRAIN.format("mot") + _FIT_Q, "kmeans(q, 3, seed=0)"),
    "detect_segments_covid_halfday_s": (
        _DETECT, "[detect_segments(wl, cfgs[k], g, seed=0) for k, g in mix]"),
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


def run(cmd: list[str], root: str, env: dict | None = None):
    """Run ``cmd`` in ``root`` on its program; the finished process and a
    pair side: ``exit``, ``wall_s`` and, on failure, ``stderr_tail``."""
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=root, env=env or env_for(root),
                       capture_output=True, text=True)
    side = {"exit": p.returncode, "wall_s": round(time.perf_counter() - t0, 2)}
    if p.returncode:
        side["stderr_tail"] = p.stderr[-2000:]
    return p, side


def perfbench(root: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One perfbench run as a pair side, and its env line.  Git is hidden
    from perfbench, so its env line names the tree by its ``src_sha256``
    (its digest of ``src/**/*.py``): a commit would name an export by the
    repository around it, and an uncommitted change not at all."""
    p, side = run([sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
                  root, dict(env_for(root), GIT_DIR=os.devnull))
    env, report, result = {}, {}, {}
    for line in p.stdout.splitlines():
        if line.startswith('{"env"'):
            env = json.loads(line)["env"]
        elif line.startswith("report "):
            _, _, name, _, value, *unit = line.split()
            report[name] = float(value)
        elif line.startswith("{"):
            result = json.loads(line)
    side.update(seed=seed, correct=bool(result.get("correct")),
                failed_ops=result.get("failed"), report=report,
                cpu_steal_share=env.get("cpu_steal_share"))
    side["layers" if trace else "metrics"] = {
        k: m["value"] for k, m in result.get("metrics", {}).items()}
    return side, env


def table2_full(root: str, csv: str) -> dict:
    p, side = run([sys.executable, "jobs/run_table2.py", "--out", csv], root)
    if not side["exit"]:
        with open(csv, "rb") as f:
            side["csv_sha256"] = hashlib.sha256(f.read()).hexdigest()
    return side


def kernel(root: str, setup: str, stmt: str) -> dict:
    """Seconds ``s`` of one call of ``stmt`` after ``setup``, in a fresh
    interpreter on ``root``'s program."""
    code = (f"import time\n{setup}t0 = time.perf_counter()\n{stmt}\n"
            "print(time.perf_counter() - t0)\n")
    p, side = run([sys.executable, "-c", code], root)
    side["s"] = None if side["exit"] else float(p.stdout.split()[-1])
    return side


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
    p, side = run(TIER1, root, env)
    tail = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", tail)}
    side.update(passed=counts.get("passed", 0), summary=tail,
                failed=counts.get("failed", 0) + counts.get("errors", 0)
                + counts.get("error", 0))
    return side


def export(commit: str, repo: str, dest: str) -> str:
    """``git archive`` of ``commit`` unpacked at ``dest``; the full hash."""
    sha = subprocess.run(["git", "rev-parse", commit], cwd=repo, check=True,
                         capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", sha], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return sha


def run_pairs(n: int, measure) -> list[dict]:
    """``n`` pairs ``{"first", "parent", "change"}``, each side
    ``measure(side, j)`` for pair ``j``; the parent goes first on even
    ``j``, the change on odd ``j``."""
    pairs = []
    for j in range(n):
        order = SIDES if j % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = measure(side, j)
        pairs.append(pair)
    return pairs


def compare(pairs: list[dict], value, better: str) -> dict:
    """``value(side)`` of both sides of every pair compared: both sides'
    quartiles, the per-pair ratios change / parent, their median, the
    pairs the change won and lost, and ``dropped``, the indices of the
    pairs left out because a side failed (a nonzero exit or no value)."""
    kept, dropped = [], []
    for j, pair in enumerate(pairs):
        v = [None if pair[s]["exit"] else value(pair[s]) for s in SIDES]
        if None in v:
            dropped.append(j)
        else:
            kept.append(v)
    parent, change = [p for p, _ in kept], [c for _, c in kept]
    ratios = [c / p if p else None for p, c in kept]
    sign = 1 if better == "lower" else -1
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "ratios": ratios,
        "median_ratio": quartiles([r for r in ratios if r is not None])[
            "median"],
        "wins": sum(sign * (p - c) > 0 for p, c in kept),
        "losses": sum(sign * (c - p) > 0 for p, c in kept),
        "pairs": len(kept),
        "dropped": dropped,
    }


def show(name: str, c: dict) -> None:
    print(f"{name}: median ratio {c['median_ratio']}, {c['wins']} won, "
          f"{c['losses']} lost, dropped {c['dropped']}", flush=True)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", required=True,
                    help="commit to pair against --root (HEAD: itself)")
    ap.add_argument("--root", default=here)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    work = os.path.join(root, ".ledger_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = args.out or os.path.join(root, f"BENCH_{args.pr}.json")
    trees = {"parent": os.path.join(work, "parent"), "change": root}
    ledger: dict = {
        "pr": args.pr, "parent": export(args.parent, root, trees["parent"]),
        "run_seconds": seconds, "env": {}, "paired": {}, "traced": {},
        "kernels": {}}
    digests: dict = {side: set() for side in SIDES}

    def perf(side: str, w: str, seed: int, trace: int) -> dict:
        result, env = perfbench(trees[side], w, seed, seconds, trace)
        digests[side].add(env.get("src_sha256"))
        if env and not ledger["env"]:
            ledger["env"] = {k: env[k] for k in ("nproc", "mem_total_gb")}
        return result

    for w in (w["name"] for w in spec["workloads"]):
        pairs = run_pairs(PAIRS, lambda side, j: perf(
            side, w, SEEDS[j % len(SEEDS)], 0))
        ledger["paired"][w] = {"pairs": pairs, "metrics": {
            m["name"]: compare(pairs, lambda s: s["metrics"].get(m["name"]),
                               m["better"]) for m in spec["end_to_end"]}}
        for name, c in ledger["paired"][w]["metrics"].items():
            show(f"{w} {name}", c)
        pairs = run_pairs(TRACE_PAIRS, lambda side, j: perf(
            side, w, TRACE_SEED, 1))
        ledger["traced"][w] = {"pairs": pairs, "layers": {
            m["name"]: compare(pairs, lambda s: s["layers"].get(m["name"]),
                               m["better"]) for m in spec["per_layer"]}}
        correct = sum(p[s]["correct"] for p in pairs for s in SIDES)
        print(f"{w} traced: {correct} of {2 * len(pairs)} runs correct",
              flush=True)
    for name, (setup, stmt) in KERNELS.items():
        pairs = run_pairs(KERNEL_PAIRS, lambda side, j: kernel(
            trees[side], setup, stmt))
        ledger["kernels"][name] = {
            "pairs": pairs, "s": compare(pairs, itemgetter("s"), "lower")}
        show(f"kernel {name}", ledger["kernels"][name]["s"])
    for key, n, measure in (
            ("table2_full", TABLE2_PAIRS, lambda side, j: table2_full(
                trees[side], os.path.join(work, f"table2-{side}-{j}.csv"))),
            ("tier1", TIER1_PAIRS, lambda side, j: tier1(trees[side]))):
        pairs = run_pairs(n, measure)
        ledger[key] = {"pairs": pairs,
                       "wall_s": compare(pairs, itemgetter("wall_s"), "lower")}
        show(key, ledger[key]["wall_s"])
    # one digest per side unless a tree changed while it was measured
    ledger["src_sha256"] = {side: sorted(map(str, d))
                            for side, d in digests.items()}
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
