"""Task-placement search (paper Section 3.1 / Appendix A.2).

The paper filters the exponential set of task placements with PlaceTo
(GNN + RL) trained against the Appendix-M simulator.  Our task DAGs have
at most ~6 nodes, so we can afford the exhaustive version of the same
contract: enumerate every placement that respects on-premise pinning,
estimate each with the Appendix-M.1 simulator, and keep the ones on the
(cloud-cost, runtime) Pareto frontier.  The output — a small Pareto set
of placements per knob configuration, with profiled runtimes and cloud
costs — is exactly what the online knob switcher consumes (Section 4.2).
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.core.offline import pareto_front
from repro.sim.cluster import Cluster
from repro.sim.dagsim import simulate_placement
from repro.video.content import ContentTrace
from repro.workloads.base import TaskGraph


def enumerate_placements(graph: TaskGraph) -> list[tuple[bool, ...]]:
    """All placements respecting ``pin_onprem`` (all-on-premises first)."""
    choices = [
        ((False,) if nd.pin_onprem else (False, True)) for nd in graph.nodes
    ]
    return sorted(itertools.product(*choices), key=lambda p: sum(p))


def multiplier_grid(trace: ContentTrace) -> tuple[np.ndarray, np.ndarray]:
    """Unique rounded multipliers and each segment's grid index."""
    rounded = np.round(trace.work_multiplier).astype(int)
    rounded = np.clip(rounded, 1, None)
    grid, inverse = np.unique(rounded, return_inverse=True)
    return grid.astype(float), inverse


def frontier_placements(
    graph: TaskGraph, cluster: Cluster, mult_grid: np.ndarray
) -> list[tuple[bool, ...]]:
    """Placements on the (cloud core-seconds, runtime) Pareto frontier.

    The frontier is the union of those at the smallest, median and
    largest multiplier of ``mult_grid`` — cloud latency does not scale
    with the multiplier, so a placement dominated for one stream may
    dominate for sixty.  Returned in enumeration order, so the
    all-on-premises placement (the zero-cost extreme) comes first.
    """
    placements = enumerate_placements(graph)
    probe = sorted(
        {
            float(mult_grid[0]),
            float(np.median(mult_grid)),
            float(mult_grid[-1]),
        }
    )
    keep: set[int] = set()
    for m in probe:
        res = [
            simulate_placement(graph, p, cluster, mult=m) for p in placements
        ]
        keep.update(
            pareto_front(
                [r.cloud_core_s for r in res], [-r.runtime_s for r in res]
            )
        )
    return [placements[j] for j in sorted(keep)]
