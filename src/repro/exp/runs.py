"""Single-experiment dispatcher: one (workload, method, hardware) run.

Every Table-2-style cell is described by a plain dict, so a grid can be
shipped to Spark workers (``repro.exp.sweep``).  A cell's offline work
depends only on its *artifact key* (:func:`artifact_key`), not on its
hardware or method variant:

- a Skyscraper cell needs the :class:`~repro.core.fit.Fitted` of its fit
  key ``(workload, seed, train_days, n_categories)``;
- a baseline cell needs the :class:`TrainingSide` of its training key
  ``(workload, seed, train_days)``.

A sweep builds each key's artifact once (:func:`build_artifact`, in the
task that runs the key's cells) and hands each cell its artifact in
``params["artifact"]``; ``run_one`` without one builds its own.  A cell
then generates only its test trace.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.chameleon import run_chameleon
from repro.baselines.optimum import run_optimum
from repro.baselines.static import (
    feasible_configs,
    most_qualitative,
    peak_multiplier,
    run_static,
)
from repro.baselines.videostorm import run_videostorm
from repro.core.fit import fit_skyscraper
from repro.core.offline import filter_knob_configs
from repro.sim.cluster import Cluster, make_cluster
from repro.sim.ingest import RunResult, run_skyscraper
from repro.workloads import get_workload
from repro.workloads.base import Config, Workload

# Daily cloud-credit budget per provisioned vCPU (USD/day/vCPU); the
# planner decides how much of it is actually worth spending.
CLOUD_BUDGET_PER_VCPU_DAY = 0.1
METHODS = ("skyscraper", "static", "chameleon", "videostorm", "optimum")
# every key a cell may set; run_one rejects any other
PARAMS = frozenset({
    "workload", "method", "vcpus", "seed", "train_days", "test_days",
    "n_categories", "enable_cloud", "enable_buffer", "artifact",
})


@dataclass(frozen=True)
class TrainingSide:
    """What the baseline cells learn from one training trace."""

    wl: Workload
    configs: list[Config]  # fit step 1's filtered set
    peak_mult: float  # Static's feasibility multiplier
    mean_q: dict[Config, float]  # mean training quality, every config

    def static_config(self, cluster: Cluster) -> Config:
        """``best_static_config`` on the training trace; only the
        feasibility filter depends on the cluster."""
        feasible = feasible_configs(self.wl, cluster, self.peak_mult)
        return most_qualitative(self.wl, feasible, self.mean_q)


def artifact_key(params: dict) -> tuple:
    """``(workload, seed, train_days, n_categories)`` for a Skyscraper
    cell, ``(workload, seed, train_days)`` for a baseline cell.  The
    first three fields name the training trace."""
    workload, method = params["workload"], params["method"]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    seed = int(params.get("seed", 0))
    train_days = float(
        params.get("train_days", get_workload(workload).train_days)
    )
    if method == "skyscraper":
        return (workload, seed, train_days, params.get("n_categories"))
    return (workload, seed, train_days)


def build_artifact(key: tuple):
    """The artifact of one :func:`artifact_key`, built from the key's
    training trace."""
    workload, seed, train_days = key[:3]
    wl = get_workload(workload)
    train = wl.content(seed=seed, n_days=train_days)
    if len(key) == 4:
        return fit_skyscraper(
            wl,
            seed=seed,
            train_days=train_days,
            n_categories=key[3],
            trace=train,
        )
    every = wl.all_configs()
    return TrainingSide(
        wl,
        configs=filter_knob_configs(wl, train, seed=seed),
        peak_mult=peak_multiplier(train),
        mean_q=dict(zip(every, wl.mean_quality(every, train).tolist())),
    )


def run_one(params: dict) -> dict:
    """Run one experiment cell and return a flat result row.

    ``params["artifact"]``, when present, is :func:`build_artifact` of
    the cell's :func:`artifact_key`.  ``enable_buffer=False`` runs the
    cell on a zero-buffer cluster, ``enable_cloud=False`` with a zero
    cloud budget.  A key outside :data:`PARAMS` raises
    ``ValueError``.
    """
    unknown = sorted(set(params) - PARAMS)
    if unknown:
        raise ValueError(f"unknown cell parameters {unknown}")
    key = artifact_key(params)
    method = params["method"]
    art = params.get("artifact")
    if art is None:
        art = build_artifact(key)
    workload, seed, train_days = key[:3]
    vcpus = int(params["vcpus"])
    wl = get_workload(workload)
    test_days = float(params.get("test_days", wl.test_days))
    n_categories = params.get("n_categories")
    cloud_budget = CLOUD_BUDGET_PER_VCPU_DAY * vcpus
    if not params.get("enable_cloud", True):
        cloud_budget = 0.0

    cluster = make_cluster(vcpus)
    if not params.get("enable_buffer", True):
        cluster = make_cluster(vcpus, buffer_bytes=0.0)
    test = wl.content(seed=seed, n_days=test_days, start_day=train_days)

    if method == "skyscraper":
        res: RunResult = run_skyscraper(
            wl,
            art,
            cluster,
            test,
            cloud_budget_usd_per_day=cloud_budget,
            seed=seed,
        )
    elif method == "static":
        res = run_static(
            wl, cluster, test, None, seed=seed,
            config=art.static_config(cluster),
        )
    elif method == "chameleon":
        res = run_chameleon(
            wl, cluster, test, None, seed=seed, configs=art.configs
        )
    elif method == "videostorm":
        res = run_videostorm(
            wl, cluster, test, None, seed=seed, configs=art.configs,
            mean_q=art.mean_q,
        )
    else:
        # fit step 1's configurations, as ``Fitted.configs``
        res = run_optimum(wl, cluster, test, art.configs, seed=seed)

    row = res.to_row()
    row["cloud_budget_usd_per_day"] = cloud_budget
    row["n_categories"] = n_categories
    row["seed"] = seed
    return row
