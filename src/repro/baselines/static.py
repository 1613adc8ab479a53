"""Static baseline (paper Section 5.3).

Processes the whole stream with one fixed knob configuration: the most
qualitative configuration that the provisioned server can sustain in
real time (at peak workload, since a static system has no content
adaptation to fall back on).  This is the baseline Skyscraper is up to
8.7x cheaper than on MOT.
"""
from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.ingest import (
    RunResult,
    build_placement_tables,
    prepare,
    simulate,
)
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


def peak_multiplier(train_trace: ContentTrace) -> float:
    """The training trace's p99.9 work multiplier: the peak a static
    configuration must survive."""
    return float(np.quantile(train_trace.work_multiplier, 0.999))


def feasible_configs(
    wl: Workload, cluster: Cluster, peak_mult: float
) -> list[Config]:
    """Configurations whose *simulated* all-on-premises segment runtime
    at ``peak_mult`` does not exceed the segment length (stage
    serialization in the DAG makes the true runtime exceed work /
    cores), in ``wl.all_configs()`` order."""
    from repro.sim.dagsim import simulate_placement

    feasible = []
    for c in wl.all_configs():
        if wl.work_per_vs(c) * peak_mult > cluster.n_cores:
            continue  # cheap necessary-condition prefilter
        g = wl.task_graph(c)
        runtime = simulate_placement(
            g, (False,) * len(g.nodes), cluster, mult=peak_mult
        ).runtime_s
        if runtime <= wl.seg_len:
            feasible.append(c)
    return feasible


def most_qualitative(
    wl: Workload, configs: list[Config], mean_q: Mapping[Config, float]
) -> Config:
    """The configuration of ``configs`` with the highest mean training
    quality ``mean_q``, the cheaper one on ties; the cheapest
    configuration of all if ``configs`` is empty."""
    if not configs:
        return wl.cheapest_config()
    return max(configs, key=lambda c: (mean_q[c], -wl.work_per_vs(c)))


def best_static_config(
    wl: Workload, cluster: Cluster, train_trace: ContentTrace
) -> Config:
    """Most qualitative configuration sustainable in real time at the
    training trace's peak (a static system must survive peaks); falls
    back to the cheapest configuration if nothing fits."""
    feasible = feasible_configs(wl, cluster, peak_multiplier(train_trace))
    mean_q = wl.mean_quality(feasible, train_trace)
    return most_qualitative(wl, feasible, dict(zip(feasible, mean_q)))


def run_static(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    train_trace: ContentTrace | None,
    *,
    seed: int = 0,
    config: Config | None = None,
) -> RunResult:
    """Simulate static ingestion with one configuration, on premises;
    ``train_trace`` is searched only when ``config`` is None."""
    if config is None:
        config = best_static_config(wl, cluster, train_trace)
    prep = prepare(wl, [config], trace, seed=seed)
    tables = build_placement_tables(
        wl, [config], cluster, prep.mult_grid, enable_cloud=False
    )
    return simulate(
        prep, cluster, tables, lambda *segment: (0, 0), method="static"
    )
