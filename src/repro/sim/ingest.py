"""Online ingestion simulator (paper Section 4 + Appendix M).

Simulates live ingestion of a content trace on a provisioned cluster:
segments arrive in real time, the chosen knob configuration + task
placement determines each segment's processing time (via the Appendix-M
DAG simulator), lagging video accumulates in the fixed-size buffer, and
cloud placements consume cloud credits.  This is the harness behind
Table 2, the ablation variants of Section 5.4, and the microbenchmarks
of Section 5.6.

:func:`simulate` is the one per-segment loop: Skyscraper and the four
baselines differ only in the ``decide`` policy that picks each
segment's configuration and placement.

The simulator enforces the V-ETL contract of Eq. 1: the knob switcher
never admits a placement whose predicted completion would push the
buffered (arrived-but-unprocessed) bytes beyond the buffer size, falling
back to cheaper configurations instead.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.fit import Fitted
from repro.core.planner import make_plan
from repro.core.switcher import KnobSwitcher
from repro.core.placement import frontier_placements, multiplier_grid
from repro.sim.cluster import Cluster
from repro.sim.dagsim import simulate_placement
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload

# fraction of the buffer Skyscraper's placements may fill
# (see SegmentQueue.would_overflow)
BUFFER_HEADROOM = 0.9


@dataclass
class RunResult:
    """Outcome of one simulated ingestion run."""

    workload: str
    method: str
    vcpus: int
    duration_days: float
    quality_pct: float  # % of the best-configuration quality ceiling
    quality_sum: float
    quality_best_sum: float
    onprem_usd: float
    cloud_usd: float
    total_usd: float
    cloud_core_s: float
    work_core_s: float  # total compute performed (on-prem + cloud)
    buffer_peak_bytes: float
    overflow: bool  # buffer constraint violated at least once
    n_switches: int
    switch_accuracy: float = float("nan")
    switch_accuracy_no_typeb: float = float("nan")
    extras: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "extras"}


# ---------------------------------------------------------------------------
# placement tables: per-configuration runtime/cost over the multiplier grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementTable:
    """Profiled placements of one configuration over all multipliers.

    ``runtime[p, g]`` / ``cloud_usd[p, g]`` give placement p's segment
    runtime and cloud cost at multiplier grid value g.  Rows are sorted
    by ascending cloud cost in column 0, the grid's smallest multiplier
    (the switcher's "cheapest first" scan order); a placement is its
    row index.
    """

    runtime: np.ndarray  # (P, G)
    cloud_usd: np.ndarray  # (P, G)


def build_placement_tables(
    wl: Workload,
    configs: list[Config],
    cluster: Cluster,
    mult_grid: np.ndarray,
    *,
    enable_cloud: bool = True,
) -> list[PlacementTable]:
    """Profile every configuration's Pareto placements (Appendix A.2,
    :func:`~repro.core.placement.frontier_placements`) over the
    multiplier grid; without cloud, only the all-on-premises one."""
    tables = []
    for cfg in configs:
        graph = wl.task_graph(cfg)
        kept = (
            frontier_placements(graph, cluster, mult_grid)
            if enable_cloud
            else [(False,) * len(graph.nodes)]
        )
        runtime = np.empty((len(kept), len(mult_grid)))
        cloud_usd = np.empty_like(runtime)
        for gi, m in enumerate(mult_grid):
            for pi, p in enumerate(kept):
                r = simulate_placement(graph, p, cluster, mult=float(m))
                runtime[pi, gi] = r.runtime_s
                cloud_usd[pi, gi] = (
                    r.cloud_core_s * cluster.cloud_usd_per_core_s
                )
        # sort by cloud cost at the smallest multiplier
        order = np.argsort(cloud_usd[:, 0], kind="stable")
        tables.append(
            PlacementTable(runtime=runtime[order], cloud_usd=cloud_usd[order])
        )
    return tables


# ---------------------------------------------------------------------------
# arrival / buffer accounting
# ---------------------------------------------------------------------------


class SegmentQueue:
    """Real-time arrival queue with a byte buffer (Eq. 1 bookkeeping).

    Segment i is fully captured at (i+1)*seg_len; processing is
    sequential.  The buffered bytes after finishing segment i equal the
    total size of segments captured by then but not yet processed:
    ``cum[captured] - cum[i+1]``, with ``captured = min(n, floor(finish
    / seg_len))``, and none while ``captured <= i+1``.
    """

    def __init__(
        self, seg_len: float, seg_bytes: np.ndarray, buffer_bytes: float
    ) -> None:
        self.seg_len = seg_len
        self.n = len(seg_bytes)
        # compact per-segment arrays whose reads are Python floats
        cum = np.concatenate([[0.0], np.cumsum(seg_bytes)])
        self.cum = array("d", cum.tobytes())
        self.buffer_bytes = buffer_bytes
        self._limits = {}  # headroom -> _first_over(headroom)
        self.ready = 0.0
        self.peak = 0.0
        self.overflowed = False

    def _first_over(self, headroom: float) -> array:
        """Per segment i, the smallest captured count c <= n whose
        backlog ``cum[c] - cum[i+1]`` exceeds ``headroom`` x the buffer
        (inf if none; the capacity is non-negative, so c > i+1).

        A binary search on that exact subtraction: ``cum`` never
        decreases, and neither does a float difference in its minuend,
        so the test is monotone in c.  (Comparing ``cum[c]`` with
        ``cum[i+1] + headroom * buffer`` would round differently.)"""
        cum = np.frombuffer(self.cum)
        cap = headroom * self.buffer_bytes
        base = cum[1:]  # cum[i+1]
        # the last c in [i+1, n] not over capacity, in power-of-two steps
        last = np.arange(1, self.n + 1)
        step = 1 << self.n.bit_length()
        while step:
            c = np.minimum(last + step, self.n)
            np.copyto(last, c, where=~(cum[c] - base > cap))
            step >>= 1
        first = last + 1.0
        first[last == self.n] = np.inf
        self._limits[headroom] = array("d", first.tobytes())
        return self._limits[headroom]

    def would_overflow(
        self, i: int, runtime: float, headroom: float = 1.0
    ) -> bool:
        """Would processing segment i with ``runtime`` push the buffer
        past ``headroom`` x its capacity?  The knob switcher admits
        expensive placements only below a safety fraction of the buffer
        (workload spikes arriving while the buffer is full would violate
        Eq. 1 before the switcher can react).  For an integer c,
        ``floor(x) >= c`` iff ``x >= c``: one comparison with the
        precomputed first overflowing capture count decides it."""
        first = self._limits.get(headroom) or self._first_over(headroom)
        start = (i + 1) * self.seg_len  # max(capture, ready), inlined
        if self.ready > start:
            start = self.ready
        return (start + runtime) / self.seg_len >= first[i]

    def step(self, i: int, runtime: float) -> float:
        """Process segment i; returns its completion wall-clock time."""
        start = (i + 1) * self.seg_len
        if self.ready > start:
            start = self.ready
        finish = start + runtime
        captured = min(self.n, math.floor(finish / self.seg_len))
        if captured > i + 1:
            backlog = self.cum[captured] - self.cum[i + 1]
            if backlog > self.buffer_bytes + 1e-6:
                self.overflowed = True
            if backlog > self.peak:
                self.peak = backlog
        self.ready = finish
        return finish


# ---------------------------------------------------------------------------
# shared precomputation
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """Per-run precomputation shared by Skyscraper and the baselines."""

    wl: Workload
    trace: ContentTrace
    work: np.ndarray  # (K,)
    qual_true: np.ndarray  # (K, n) noiseless
    qual_obs: np.ndarray  # (K, n) reported
    qual_best: np.ndarray  # (n,) ceiling from the most qualitative config
    seg_bytes: np.ndarray  # (n,)
    mult_grid: np.ndarray
    mult_idx: np.ndarray  # (n,) index into mult_grid


def prepare(
    wl: Workload, configs: list[Config], trace: ContentTrace, *, seed: int
) -> Prepared:
    # one kernel pass for both: quality_curves' and observed_quality's ops
    acc = wl.accuracies(configs, trace.difficulty)
    mass = wl.mass(trace.difficulty, trace.work_multiplier)
    qual_true = acc * mass
    qual_obs = wl.report_accuracies(
        acc, configs, trace.global_ids(), seed=seed
    )
    qual_obs *= mass
    qual_best = wl.quality_curves([wl.best_config()], trace)[0]
    # the multiplier counts concurrent streams (MOSEI) and is 1 elsewhere
    seg_bytes = wl.bitrate_bytes_per_s * wl.seg_len * trace.work_multiplier
    grid, idx = multiplier_grid(trace)
    return Prepared(
        wl=wl,
        trace=trace,
        work=np.array([wl.work_per_vs(c) for c in configs]),
        qual_true=qual_true,
        qual_obs=qual_obs,
        qual_best=qual_best,
        seg_bytes=seg_bytes,
        mult_grid=grid,
        mult_idx=idx,
    )


def finalize(
    prep: Prepared,
    cluster: Cluster,
    *,
    method: str,
    chosen_k: np.ndarray,
    queue: SegmentQueue,
    cloud_usd: float,
    cloud_core_s: float,
    extras: dict | None = None,
) -> RunResult:
    wl, trace = prep.wl, prep.trace
    n = trace.n_segments
    idx = np.arange(n)
    # mass (MOSEI's stream count) is already folded into the curves
    q_sum = float(prep.qual_true[chosen_k, idx].sum())
    q_best = float(prep.qual_best.sum())
    duration_s = n * wl.seg_len
    onprem_usd = cluster.onprem_cost(duration_s)
    work = float(
        (prep.work[chosen_k] * wl.seg_len * trace.work_multiplier).sum()
    )
    return RunResult(
        workload=wl.name,
        method=method,
        vcpus=cluster.n_cores,
        duration_days=duration_s / 86400.0,
        quality_pct=100.0 * q_sum / q_best if q_best > 0 else 0.0,
        quality_sum=q_sum,
        quality_best_sum=q_best,
        onprem_usd=onprem_usd,
        cloud_usd=cloud_usd,
        total_usd=onprem_usd + cloud_usd,
        cloud_core_s=cloud_core_s,
        work_core_s=work,
        buffer_peak_bytes=queue.peak,
        overflow=queue.overflowed,
        n_switches=int((np.diff(chosen_k) != 0).sum()),
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# the per-segment decision loop
# ---------------------------------------------------------------------------


def simulate(
    prep: Prepared,
    cluster: Cluster,
    tables: list[PlacementTable],
    decide: Callable[..., tuple[int, int]],
    *,
    method: str,
    extras: dict | None = None,
) -> RunResult:
    """Ingest ``prep.trace`` on ``cluster`` with one decision per segment.

    ``decide(i, g, rt, usd, queue)`` returns the configuration index k
    and the placement index p into ``tables[k]`` for segment i, whose
    multiplier grid index is g; ``rt[k][p]`` and ``usd[k][p]`` are each
    placement's runtime and cloud cost at that multiplier.  ``decide``
    may consult (and, for profiling work, delay) ``queue``.  The segment
    is then processed with the chosen placement's runtime and its cloud
    cost is added to the spend.  ``extras`` goes on to the result.
    """
    # [g][k][p] as Python floats: no numpy scalar reads per segment
    grid = range(len(prep.mult_grid))
    runtime = [[t.runtime[:, g].tolist() for t in tables] for g in grid]
    cost = [[t.cloud_usd[:, g].tolist() for t in tables] for g in grid]
    queue = SegmentQueue(prep.wl.seg_len, prep.seg_bytes, cluster.buffer_bytes)
    chosen = []
    cloud_usd = cloud_core_s = 0.0
    for i, g in enumerate(prep.mult_idx.tolist()):
        rt, usd_g = runtime[g], cost[g]
        k, p = decide(i, g, rt, usd_g, queue)
        queue.step(i, rt[k][p])
        usd = usd_g[k][p]
        cloud_usd += usd
        cloud_core_s += usd / cluster.cloud_usd_per_core_s
        chosen.append(k)
    return finalize(
        prep,
        cluster,
        method=method,
        chosen_k=np.array(chosen, dtype=int),
        queue=queue,
        cloud_usd=cloud_usd,
        cloud_core_s=cloud_core_s,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Skyscraper online phase
# ---------------------------------------------------------------------------


def run_skyscraper(
    wl: Workload,
    fitted: Fitted,
    cluster: Cluster,
    trace: ContentTrace,
    *,
    cloud_budget_usd_per_day: float = 0.5,
    seed: int = 0,
) -> RunResult:
    """Simulate Skyscraper's online phase over ``trace``.

    The fit sets the categories, the forecaster and the planning
    interval (``fitted.spec.out_days``); ``cluster`` sets the cores and
    the buffer.  Without a positive ``cloud_budget_usd_per_day`` only
    on-premises placements are profiled, so no pick, forced ones
    included, spends.  A zero budget and a zero-buffer cluster are the
    Section 5.4 ablations.
    """
    prep = prepare(wl, fitted.configs, trace, seed=seed)
    tables = build_placement_tables(
        wl,
        fitted.configs,
        cluster,
        prep.mult_grid,
        enable_cloud=cloud_budget_usd_per_day > 0,
    )
    switcher = KnobSwitcher(
        fitted.categories, [t.runtime[:, 0].tolist() for t in tables]
    )

    n = trace.n_segments
    seg_len = wl.seg_len
    n_cats = fitted.categories.n
    plan_interval_segments = max(
        1, int(round(fitted.spec.out_days * 86400.0 / seg_len))
    )
    bin_segments = max(1, int(round(fitted.spec.bin_s / seg_len)))
    horizon = int(round(fitted.spec.in_bins * 4))  # bounded label history
    qual_obs = prep.qual_obs
    mult = trace.work_multiplier

    est_labels = np.empty(n, dtype=int)
    k_run = np.empty(n, dtype=int)  # configuration running at decision i
    cloud_allow = 0.0

    def label_hists(i: int) -> np.ndarray:
        """Category histograms of the last complete label bins before
        segment i, at most ``horizon`` of them (the forecaster's online
        features)."""
        end = i // bin_segments
        m = min(end, horizon)
        if m == 0:
            return fitted.train_hists
        bins = est_labels[(end - m) * bin_segments : end * bin_segments]
        onehot = bins.reshape(m, bin_segments, 1) == np.arange(n_cats)
        return onehot.sum(axis=1) / bin_segments

    def plan(i: int) -> None:
        nonlocal cloud_allow
        interval_s = min(plan_interval_segments, n - i) * seg_len
        cloud_allow += cloud_budget_usd_per_day * interval_s / 86400.0
        recent_mult = (
            float(mult[max(0, i - plan_interval_segments) : i + 1].mean())
            if i > 0
            else fitted.mean_mult
        )
        knob_plan = make_plan(
            fitted,
            label_hists(i),
            cluster,
            interval_s=interval_s,
            cloud_budget_usd=cloud_allow,
            mean_mult=recent_mult,
        )
        switcher.set_plan(knob_plan.alpha)

    def decide(i, g, rt, usd, queue):
        nonlocal cloud_allow
        if i % plan_interval_segments == 0:
            plan(i)

        # step 1: classify the content from the previous segment's
        # reported quality (Eq. 5)
        k_cur = k_run[i] = switcher.k_cur
        c = est_labels[i] = switcher.classify(
            float(qual_obs[k_cur, max(0, i - 1)])
        )

        # steps 2-3: plan lookup, then a placement within the cloud
        # credit that keeps the buffer below its headroom (Eq. 1)
        def feasible(k: int, p: int) -> bool:
            if usd[k][p] > cloud_allow + 1e-12:
                return False
            return not queue.would_overflow(
                i, rt[k][p], headroom=BUFFER_HEADROOM
            )

        k, p = switcher.choose(c, feasible)
        cloud_allow = max(0.0, cloud_allow - usd[k][p])
        return k, p

    res = simulate(prep, cluster, tables, decide, method="skyscraper")
    gt_labels = fitted.categories.classify_full(prep.qual_true.T)
    # Section 5.6: Eq. 5 on the current segment's quality (no Type-B
    # timing mismatch), against the full-vector ground truth
    est_labels_nb = fitted.categories.classify_1d(
        k_run, qual_obs[k_run, np.arange(n)]
    )
    res.switch_accuracy = float((est_labels == gt_labels).mean())
    res.switch_accuracy_no_typeb = float((est_labels_nb == gt_labels).mean())
    return res
