"""V-ETL benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-covid8 --seed 0 --seconds 10 --trace 0

Workloads: sim-covid8, table2-grid and etl-batch (README.md says why
each exists).  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
``--write-golden`` regenerates the golden rows (default seed only).
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback

WORKLOADS = {
    "sim-covid8": "perfbench.sim",
    "table2-grid": "perfbench.grid",
    "etl-batch": "perfbench.etl",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, "src", "repro")) or \
            not os.path.isfile(spec_path):
        print("perfbench: run from the repository root (needs src/repro "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    for p in (os.path.join(root, "src"), root):
        if p not in sys.path:
            sys.path.insert(0, p)

    from perfbench import common

    work = os.path.join(root, ".perfbench_work")
    out = os.path.join(root, ".perfbench_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out, exist_ok=True)
    run = common.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), root=root, work=work, out=out,
    )
    mod = importlib.import_module(WORKLOADS[args.workload])
    try:
        if args.write_golden:
            mod.write_golden(run)
            return 0
        measured = mod.measure(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # a layer the workload bypasses reads 0 (see README.md)
        v = measured.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": float(v), "unit": m["unit"]}
    missing = [m["name"] for m in spec["end_to_end"]
               if not run.trace and m["name"] not in measured]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1

    print(json.dumps({"env": common.environment(run)}))
    for name, (v, unit) in run.report.items():
        print(f"report {run.workload} {name} = {v:.6g} {unit}")
    for name, m in metrics.items():
        print(f"metric {run.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"ops attempted={run.attempted} failed={run.failed}")
    for e in run.gate_errors[:20]:
        print(f"gate failure: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
