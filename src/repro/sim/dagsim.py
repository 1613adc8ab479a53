"""DAG placement runtime simulator (paper Appendix M.1).

Estimates the runtime of executing one segment's task graph under a given
placement (each stage on-premises or on the cloud), following the
paper's algorithm: stages are scheduled iteratively in order of earliest
dependency-ready time; on-premise work goes to the least-busy cores;
cloud work must first acquire the uplink (each transfer occupies the
full uplink for ``bytes / bandwidth``) and successive cloud dispatches
serialize through a single ``t_max_cloud``; the runtime estimate is the
max over all core/cloud busy-until times.

Our stages are *wide*: one node covers all invocations of a UDF on a
segment (``width`` independent sub-tasks, e.g. one detector call per
processed frame).  On premises the sub-tasks are list-scheduled over the
cores (each UDF instance runs single-threaded on one core, as in the
paper's profiling methodology); on the cloud they run on parallel Lambda
workers, so the latency of the stage is one sub-task's execution time
while the *billing* covers all of them.

The work multiplier ``mult`` (concurrent-stream count for MOSEI) scales
the number of sub-tasks, the payloads, and the billing — but not the
per-sub-task cloud latency.

The paper validates this simulator family at <9% error (Appendix M.2)
and uses it for the placement search and the ablation study; we use it
for the same purposes plus the hardware sweep of Table 2.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.sim.cluster import Cluster
from repro.workloads.base import TaskGraph


@dataclass(frozen=True)
class DagSimResult:
    runtime_s: float  # wall-clock to finish the whole segment DAG
    cloud_core_s: float  # billed cloud core-seconds


def simulate_placement(
    graph: TaskGraph,
    cloud: tuple[bool, ...],
    cluster: Cluster,
    *,
    mult: float = 1.0,
) -> DagSimResult:
    """Simulate one placement of ``graph`` on ``cluster``."""
    n = len(graph.nodes)
    if len(cloud) != n:
        raise ValueError("placement length must match node count")
    for i, nd in enumerate(graph.nodes):
        if cloud[i] and nd.pin_onprem:
            raise ValueError(f"node {nd.name} is pinned on-premises")

    deps: list[list[int]] = [[] for _ in range(n)]
    for a, b in graph.edges:
        deps[b].append(a)

    finish = [0.0] * n
    # min-heap of core busy-until times — O(log c) per sub-task
    cores = [0.0] * cluster.n_cores
    heapq.heapify(cores)
    cloud_busy = 0.0
    uplink_free = 0.0
    cloud_core_s = 0.0

    scheduled = [False] * n
    for _ in range(n):
        # Pick the unscheduled stage whose dependencies resolve earliest.
        best, best_ready = -1, float("inf")
        for i in range(n):
            if scheduled[i] or any(not scheduled[d] for d in deps[i]):
                continue
            ready = max((finish[d] for d in deps[i]), default=0.0)
            if ready < best_ready:
                best, best_ready = i, ready
        i, ready = best, best_ready
        nd = graph.nodes[i]
        total_work = nd.onprem_s * mult
        if not cloud[i]:
            nsub = max(1, round(nd.width * mult))
            if nsub <= 4 * cluster.n_cores:
                d = total_work / nsub
                stage_finish = 0.0
                for _s in range(nsub):
                    busy = heapq.heappop(cores)
                    t = max(busy, ready) + d
                    heapq.heappush(cores, t)
                    stage_finish = max(stage_finish, t)
            else:
                # Bulk approximation for very wide stages: spread the
                # work evenly across all cores.
                per_core = total_work / cluster.n_cores
                new_cores = [
                    max(heapq.heappop(cores), ready) + per_core
                    for _ in range(cluster.n_cores)
                ]
                for t in new_cores:
                    heapq.heappush(cores, t)
                stage_finish = max(new_cores)
            finish[i] = stage_finish
        else:
            up_t = nd.up_bytes * mult * 8.0 / cluster.uplink_bps
            dispatchable = max(ready, uplink_free)
            uplink_free = dispatchable + up_t
            down_t = nd.down_bytes * mult * 8.0 / cluster.downlink_bps
            # parallel Lambdas: stage latency is one sub-task's latency
            cloud_busy = max(cloud_busy, dispatchable + up_t) + nd.cloud_s + down_t
            finish[i] = cloud_busy
            cloud_core_s += total_work  # billed by compute performed
        scheduled[i] = True

    runtime = max(max(cores), cloud_busy)
    return DagSimResult(runtime_s=runtime, cloud_core_s=cloud_core_s)
