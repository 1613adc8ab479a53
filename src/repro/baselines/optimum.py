"""Optimum baseline (paper Section 5.4, baseline 2c).

Fully leverages the ground truth: knowing every configuration's true
quality on every segment beforehand, it chooses per-segment
configurations that maximize total quality under a total-work budget.
We solve the per-segment multiple-choice knapsack LP exactly via its
dual: for a price lambda on work, each segment independently picks
argmax_k (quality - lambda * cost); bisecting lambda to meet the budget
gives the LP optimum (up to one fractional segment, which we round
down).  This is at least as strong as the paper's greedy 0-1 knapsack
approximation.

The LP knows nothing of the buffer: ``simulate`` replays its choices on
premises, so the row reports the buffer they would need (MOSEI's
spikes take several times a 4 GB buffer) and flags the overflow.
"""
from __future__ import annotations

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.ingest import (
    Prepared,
    RunResult,
    build_placement_tables,
    prepare,
    simulate,
)
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


def optimum_choices(prep: Prepared, budget_core_s: float) -> np.ndarray:
    """Per-segment configuration indices maximizing total quality
    subject to total work <= budget_core_s."""
    seg_len = prep.wl.seg_len
    values = prep.qual_true  # (K, n)
    costs = (
        prep.work[:, None] * seg_len * prep.trace.work_multiplier[None, :]
    )  # (K, n)

    def pick(lam: float) -> np.ndarray:
        return np.argmax(values - lam * costs, axis=0)

    def total_cost(choice: np.ndarray) -> float:
        return float(costs[choice, np.arange(costs.shape[1])].sum())

    lo, hi = 0.0, 1.0
    if total_cost(pick(0.0)) <= budget_core_s:
        return pick(0.0)
    while total_cost(pick(hi)) > budget_core_s and hi < 1e9:
        hi *= 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if total_cost(pick(mid)) > budget_core_s:
            lo = mid
        else:
            hi = mid
    return pick(hi)


def run_optimum(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    configs: list[Config],
    *,
    budget_core_s: float | None = None,
    seed: int = 0,
) -> RunResult:
    """Ground-truth-optimal knob choices under the cluster's compute
    budget (on-premise core-seconds over the stream duration)."""
    prep = prepare(wl, configs, trace, seed=seed)
    if budget_core_s is None:
        budget_core_s = cluster.n_cores * trace.n_segments * wl.seg_len
    chosen = optimum_choices(prep, budget_core_s).tolist()
    tables = build_placement_tables(
        wl, configs, cluster, prep.mult_grid, enable_cloud=False
    )
    return simulate(
        prep, cluster, tables, lambda i, *_: (chosen[i], 0), method="optimum"
    )
