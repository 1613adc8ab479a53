"""Tests for placement enumeration + Pareto filtering (App. A.2)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.placement import PlacementProfile, enumerate_placements
from repro.sim.cluster import make_cluster
from repro.sim.ingest import build_placement_tables
from repro.workloads import ALL_WORKLOADS, get_workload


def pareto_placements(wl, cluster):
    """Profiled Pareto placements of the best configuration at
    multiplier 1, in the knob switcher's scan order."""
    tables = build_placement_tables(
        wl, [wl.best_config()], cluster, np.array([1.0])
    )
    return tables[0].profiles


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
        frontier = pareto_placements(wl, make_cluster(8))
        assert frontier[0].is_onprem_only
        assert frontier[0].cloud_usd == 0.0

    def test_sorted_by_cost_and_runtime_decreasing(self, wl):
        frontier = pareto_placements(wl, make_cluster(4))
        costs = [p.cloud_usd for p in frontier]
        runtimes = [p.runtime_s for p in frontier]
        assert costs == sorted(costs)
        assert runtimes == sorted(runtimes, reverse=True)

    def test_no_dominated_members(self, wl):
        frontier = pareto_placements(wl, make_cluster(4))
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominated = (
                    b.cloud_usd <= a.cloud_usd and b.runtime_s < a.runtime_s
                )
                assert not dominated or b.cloud_usd < a.cloud_usd

    def test_profiles_are_frozen(self):
        p = PlacementProfile((False,), 1.0, 0.0)
        with pytest.raises(AttributeError):
            p.runtime_s = 2.0

    def test_cloud_helps_on_small_machine(self):
        """On 4 cores the expensive COVID config must have a cloud
        placement that is faster than all-on-premises."""
        wl = get_workload("covid")
        frontier = pareto_placements(wl, make_cluster(4))
        assert len(frontier) >= 2
        assert frontier[-1].runtime_s < frontier[0].runtime_s
