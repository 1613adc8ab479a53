"""Tests for placement enumeration + Pareto filtering (App. A.2)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.placement import enumerate_placements
from repro.sim.cluster import make_cluster
from repro.sim.dagsim import simulate_placement
from repro.sim.ingest import build_placement_tables
from repro.workloads import ALL_WORKLOADS, get_workload


def pareto_placements(wl, cluster):
    """(cloud cost, runtime) of the best configuration's Pareto
    placements at multiplier 1, in the knob switcher's scan order."""
    (table,) = build_placement_tables(
        wl, [wl.best_config()], cluster, np.array([1.0])
    )
    return table.cloud_usd[:, 0].tolist(), table.runtime[:, 0].tolist()


@pytest.fixture(params=ALL_WORKLOADS)
def wl(request):
    return get_workload(request.param)


class TestEnumeration:
    def test_respects_pinning(self, wl):
        g = wl.task_graph(wl.best_config())
        placements = enumerate_placements(g)
        pinned = [i for i, nd in enumerate(g.nodes) if nd.pin_onprem]
        for p in placements:
            for i in pinned:
                assert not p[i]

    def test_count(self, wl):
        g = wl.task_graph(wl.best_config())
        free = sum(1 for nd in g.nodes if not nd.pin_onprem)
        assert len(enumerate_placements(g)) == 2**free

    def test_all_onprem_first(self, wl):
        g = wl.task_graph(wl.best_config())
        assert not any(enumerate_placements(g)[0])


class TestPareto:
    def test_contains_onprem_only(self, wl):
        """The first row is the all-on-premises placement: no cloud cost,
        and the runtime of the placement with no cloud node."""
        cluster = make_cluster(8)
        costs, runtimes = pareto_placements(wl, cluster)
        g = wl.task_graph(wl.best_config())
        onprem = simulate_placement(g, enumerate_placements(g)[0], cluster)
        assert costs[0] == 0.0
        assert runtimes[0] == onprem.runtime_s

    def test_sorted_by_cost_and_runtime_decreasing(self, wl):
        costs, runtimes = pareto_placements(wl, make_cluster(4))
        assert costs == sorted(costs)
        assert runtimes == sorted(runtimes, reverse=True)

    def test_no_dominated_members(self, wl):
        costs, runtimes = pareto_placements(wl, make_cluster(4))
        for a in range(len(costs)):
            for b in range(len(costs)):
                if a == b:
                    continue
                dominated = (
                    costs[b] <= costs[a] and runtimes[b] < runtimes[a]
                )
                assert not dominated or costs[b] < costs[a]

    def test_cloud_helps_on_small_machine(self):
        """On 4 cores the expensive COVID config must have a cloud
        placement that is faster than all-on-premises."""
        wl = get_workload("covid")
        costs, runtimes = pareto_placements(wl, make_cluster(4))
        assert len(runtimes) >= 2
        assert runtimes[-1] < runtimes[0]
