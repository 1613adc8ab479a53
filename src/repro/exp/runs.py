"""Single-experiment dispatcher: one (workload, method, hardware) run.

Every Table-2-style cell is described by a plain dict so the grid can be
shipped to Spark workers as JSON (``repro.exp.sweep``).  The offline fit
is cached per (workload, seed, train settings) within a process, so
local sweeps do not refit for every hardware point.
"""
from __future__ import annotations

from functools import lru_cache

from repro.baselines.chameleon import run_chameleon
from repro.baselines.optimum import run_optimum
from repro.baselines.static import run_static
from repro.baselines.videostorm import run_videostorm
from repro.core.fit import Fitted, fit_skyscraper
from repro.core.offline import filter_knob_configs
from repro.sim.cluster import make_cluster
from repro.sim.ingest import RunResult, run_skyscraper
from repro.workloads import get_workload

# Daily cloud-credit budget per provisioned vCPU (USD/day/vCPU); the
# planner decides how much of it is actually worth spending.
CLOUD_BUDGET_PER_VCPU_DAY = 0.1


@lru_cache(maxsize=16)
def cached_fit(
    workload: str,
    seed: int,
    train_days: float,
    n_categories: int | None,
    plan_days: float,
    in_days: float,
) -> Fitted:
    wl = get_workload(workload)
    return fit_skyscraper(
        wl,
        seed=seed,
        train_days=train_days,
        n_categories=n_categories,
        plan_days=plan_days,
        in_days=in_days,
    )


def run_one(params: dict) -> dict:
    """Run one experiment cell and return a flat result row."""
    workload = params["workload"]
    method = params["method"]
    vcpus = int(params["vcpus"])
    seed = int(params.get("seed", 0))
    wl = get_workload(workload)
    train_days = float(params.get("train_days", wl.train_days))
    test_days = float(params.get("test_days", wl.test_days))
    n_categories = params.get("n_categories")
    cloud_budget = CLOUD_BUDGET_PER_VCPU_DAY * vcpus

    cluster = make_cluster(vcpus)
    test = wl.content(seed=seed, n_days=test_days, start_day=train_days)
    # the planning horizon must be learnable from the training window
    # (the paper: 16 train days for a 2-day horizon, a 8:1 ratio)
    plan_days = in_days = min(2.0, train_days / 8.0)

    if method == "skyscraper":
        fitted = cached_fit(
            workload, seed, train_days, n_categories, plan_days, in_days
        )
        res: RunResult = run_skyscraper(
            wl,
            fitted,
            cluster,
            test,
            cloud_budget_usd_per_day=cloud_budget,
            seed=seed,
            enable_cloud=bool(params.get("enable_cloud", True)),
            enable_buffer=bool(params.get("enable_buffer", True)),
            classify_mode=params.get("classify_mode", "standard"),
            ground_truth_forecast=bool(
                params.get("ground_truth_forecast", False)
            ),
        )
    elif method in ("static", "chameleon", "videostorm", "optimum"):
        train = wl.content(seed=seed, n_days=train_days)
        if method == "static":
            res = run_static(wl, cluster, test, train, seed=seed)
        elif method == "chameleon":
            res = run_chameleon(wl, cluster, test, train, seed=seed)
        elif method == "videostorm":
            res = run_videostorm(wl, cluster, test, train, seed=seed)
        else:
            # fit step 1 alone: same trace and seed as the fit's, so the
            # same configurations as ``Fitted.configs``
            configs = filter_knob_configs(wl, train, seed=seed)
            res = run_optimum(wl, cluster, test, configs, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}")

    row = res.to_row()
    row.update(
        {
            k: params[k]
            for k in ("classify_mode", "ground_truth_forecast")
            if k in params
        }
    )
    row["cloud_budget_usd_per_day"] = cloud_budget
    row["n_categories"] = n_categories
    row["seed"] = seed
    return row
