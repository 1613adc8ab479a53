"""Tests for the Appendix M.1 DAG placement simulator."""
from __future__ import annotations

import numpy as np
import pytest

from repro.sim.cluster import Cluster, make_cluster
from repro.sim.dagsim import simulate_placement
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.base import TaskGraph, TaskNode


def mk_cluster(cores=4, uplink_mbps=200.0):
    return Cluster(
        n_cores=cores,
        vm_usd_per_hour=0.14,
        uplink_bps=uplink_mbps * 1e6,
        downlink_bps=400e6,
    )


def chain(*nodes):
    return TaskGraph(tuple(nodes), tuple((i, i + 1) for i in range(len(nodes) - 1)))


class TestOnPrem:
    def test_single_node_single_core(self):
        g = chain(TaskNode("a", 2.0, 1.0, 0, 0))
        res = simulate_placement(g, (False,), mk_cluster(cores=1))
        assert res.runtime_s == pytest.approx(2.0)
        assert res.cloud_core_s == 0.0

    def test_wide_node_uses_cores(self):
        g = chain(TaskNode("a", 8.0, 1.0, 0, 0, width=8))
        res = simulate_placement(g, (False,), mk_cluster(cores=4))
        # 8 sub-tasks of 1s on 4 cores -> 2s makespan
        assert res.runtime_s == pytest.approx(2.0)

    def test_width_capped_by_subtasks(self):
        g = chain(TaskNode("a", 8.0, 1.0, 0, 0, width=2))
        res = simulate_placement(g, (False,), mk_cluster(cores=4))
        # only 2 sub-tasks of 4s each -> 4s makespan even with 4 cores
        assert res.runtime_s == pytest.approx(4.0)

    def test_chain_serializes(self):
        g = chain(
            TaskNode("a", 1.0, 1.0, 0, 0),
            TaskNode("b", 2.0, 1.0, 0, 0),
        )
        res = simulate_placement(g, (False, False), mk_cluster(cores=4))
        assert res.runtime_s == pytest.approx(3.0)

    def test_parallel_branches_overlap(self):
        # a -> (b, c): b and c run concurrently on different cores
        g = TaskGraph(
            (
                TaskNode("a", 1.0, 1.0, 0, 0),
                TaskNode("b", 2.0, 1.0, 0, 0),
                TaskNode("c", 2.0, 1.0, 0, 0),
            ),
            ((0, 1), (0, 2)),
        )
        res = simulate_placement(g, (False,) * 3, mk_cluster(cores=2))
        assert res.runtime_s == pytest.approx(3.0)

    def test_bulk_approximation_for_very_wide(self):
        g = chain(TaskNode("a", 100.0, 1.0, 0, 0, width=1000))
        res = simulate_placement(g, (False,), mk_cluster(cores=4))
        assert res.runtime_s == pytest.approx(25.0)

    def test_mult_scales_onprem(self):
        g = chain(TaskNode("a", 2.0, 1.0, 0, 0, width=4))
        r1 = simulate_placement(g, (False,), mk_cluster(cores=2), mult=1.0)
        r3 = simulate_placement(g, (False,), mk_cluster(cores=2), mult=3.0)
        assert r3.runtime_s == pytest.approx(3 * r1.runtime_s)


class TestCloud:
    def test_cloud_latency_and_billing(self):
        g = chain(TaskNode("a", 4.0, 0.5, 1e6, 0, width=4))
        cl = mk_cluster(uplink_mbps=80.0)  # 1e6*8/80e6 = 0.1 s upload
        res = simulate_placement(g, (True,), cl)
        assert res.runtime_s == pytest.approx(0.1 + 0.5)
        assert res.cloud_core_s == pytest.approx(4.0)  # billed by work

    def test_cloud_latency_not_scaled_by_mult(self):
        """Parallel Lambdas: more streams = same latency except uplink."""
        g = chain(TaskNode("a", 4.0, 0.5, 0, 0, width=4))
        r1 = simulate_placement(g, (True,), mk_cluster(), mult=1.0)
        r5 = simulate_placement(g, (True,), mk_cluster(), mult=5.0)
        assert r5.runtime_s == pytest.approx(r1.runtime_s)
        assert r5.cloud_core_s == pytest.approx(5 * r1.cloud_core_s)

    def test_uplink_scales_with_mult(self):
        g = chain(TaskNode("a", 4.0, 0.5, 1e6, 0, width=4))
        cl = mk_cluster(uplink_mbps=80.0)
        r1 = simulate_placement(g, (True,), cl, mult=1.0)
        r10 = simulate_placement(g, (True,), cl, mult=10.0)
        assert r10.runtime_s == pytest.approx(r1.runtime_s + 0.9)

    def test_successive_cloud_tasks_serialize(self):
        """The paper's t_max_cloud serializes successive dispatches."""
        g = chain(
            TaskNode("a", 1.0, 0.5, 0, 0),
            TaskNode("b", 1.0, 0.5, 0, 0),
        )
        res = simulate_placement(g, (True, True), mk_cluster())
        assert res.runtime_s == pytest.approx(1.0)

    def test_pinned_node_rejected_on_cloud(self):
        g = chain(TaskNode("a", 1.0, 1.0, 0, 0, pin_onprem=True))
        with pytest.raises(ValueError):
            simulate_placement(g, (True,), mk_cluster())

    def test_placement_length_validated(self):
        g = chain(TaskNode("a", 1.0, 1.0, 0, 0))
        with pytest.raises(ValueError):
            simulate_placement(g, (False, True), mk_cluster())

    def test_downlink_transfer_counted(self):
        g = chain(TaskNode("a", 1.0, 0.5, 0, 40e6, width=1))
        cl = mk_cluster()
        res = simulate_placement(g, (True,), cl)
        assert res.runtime_s == pytest.approx(0.5 + 40e6 * 8 / cl.downlink_bps)

    def test_mixed_placement_dependency(self):
        # cloud a feeds onprem b: b starts after a's finish
        g = chain(
            TaskNode("a", 1.0, 0.5, 0, 0),
            TaskNode("b", 1.0, 0.5, 0, 0),
        )
        res = simulate_placement(g, (True, False), mk_cluster(cores=1))
        assert res.runtime_s == pytest.approx(0.5 + 1.0)


class TestWorkloadGraphs:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_onprem_runtime_close_to_work_over_cores(self, name):
        """For wide graphs, runtime ~ total work / cores (+ chain gaps)."""
        wl = get_workload(name)
        cfg = wl.best_config()
        g = wl.task_graph(cfg)
        cl = make_cluster(16)
        res = simulate_placement(g, (False,) * len(g.nodes), cl)
        lower = g.total_onprem_s / cl.n_cores
        assert res.runtime_s >= lower - 1e-9
        assert res.runtime_s <= 4 * lower + 1.0

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_more_cores_never_slower(self, name):
        wl = get_workload(name)
        g = wl.task_graph(wl.best_config())
        r4 = simulate_placement(g, (False,) * len(g.nodes), make_cluster(4))
        r60 = simulate_placement(g, (False,) * len(g.nodes), make_cluster(60))
        assert r60.runtime_s <= r4.runtime_s + 1e-9
