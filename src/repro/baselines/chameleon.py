"""Chameleon* baseline (paper Section 5.3).

An adaptation of Chameleon [40] for the V-ETL setting.  Chameleon
periodically *profiles* its candidate knob configurations on recent
frames and then uses the cheapest configuration whose profiled quality
is within a threshold of the best — minimizing average processing time
under the assumption that the hardware is peak-provisioned.  Following
the paper, we equip it with a buffer so it can run on cheaper machines:
when the buffer would overflow it falls back to the cheapest
configuration until the buffer drains (an unmanaged fallback — the real
adaptation "may easily crash"; we record whether even the fallback
overflowed).

The two structural disadvantages vs. Skyscraper that the paper reports
emerge naturally: (1) the periodic profiling re-runs *every* candidate
configuration on sample segments, an overhead that grows with the cost
of the expensive configurations (which is why Chameleon* suffers most on
MOSEI); (2) no forecasting/rationing, so expensive configurations are
used greedily until the buffer fills, after which quality collapses.
"""
from __future__ import annotations

import numpy as np

from repro.core.offline import filter_knob_configs
from repro.sim.cluster import Cluster
from repro.sim.ingest import (
    RunResult,
    build_placement_tables,
    prepare,
    simulate,
)
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload

PROFILE_EVERY_S = 600.0  # profiling period
PROFILE_SEGMENTS = 1  # a pass at segment i re-runs i - PROFILE_SEGMENTS .. i
QUALITY_SLACK = 0.92  # accepted fraction of the best profiled quality


def run_chameleon(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    train_trace: ContentTrace | None,
    *,
    seed: int = 0,
    configs: list[Config] | None = None,
) -> RunResult:
    """Simulate Chameleon* ingestion over the candidate ``configs``: fit
    step 1's filtered set, computed from ``train_trace`` when None."""
    if configs is None:
        configs = filter_knob_configs(wl, train_trace, seed=seed)
    prep = prepare(wl, configs, trace, seed=seed)
    tables = build_placement_tables(
        wl, configs, cluster, prep.mult_grid, enable_cloud=False
    )
    runtimes = np.stack(
        [t.runtime[0] for t in tables]
    )  # (K, G) on-prem-only runtime per multiplier grid value
    epoch_segments = max(1, int(round(PROFILE_EVERY_S / wl.seg_len)))
    cheapest = int(np.argmin(prep.work))
    # per multiplier-grid value: best configuration that still runs in
    # real time — the fallback when the unmanaged buffer fills up
    mean_q = prep.qual_true.mean(axis=1)
    realtime_best = []
    for g in range(runtimes.shape[1]):
        ok = np.flatnonzero(runtimes[:, g] <= wl.seg_len)
        realtime_best.append(
            int(ok[np.argmax(mean_q[ok])]) if len(ok) else cheapest
        )
    k_epoch = cheapest

    def decide(i, g, rt, usd, queue):
        nonlocal k_epoch
        if i % epoch_segments == 0:
            # Profiling pass: run every candidate on segments
            # ``i - PROFILE_SEGMENTS`` through i, the current one
            # included (fewer at the start of the trace); the work goes
            # through the same queue as regular processing (it competes
            # for cores).
            lo = max(0, i - PROFILE_SEGMENTS)
            profile_runtime = float(
                runtimes[:, prep.mult_idx[lo : i + 1]].sum()
            )
            if profile_runtime > 0:
                queue.ready += profile_runtime
            # Pick the cheapest configuration whose profiled quality is
            # within ``QUALITY_SLACK`` of the best profiled quality.
            prof_q = prep.qual_obs[:, lo : i + 1].mean(axis=1)
            best_q = prof_q.max()
            ok = np.flatnonzero(prof_q >= QUALITY_SLACK * best_q)
            k_epoch = int(ok[np.argmin(prep.work[ok])])
        k = k_epoch
        if queue.would_overflow(i, rt[k][0]):
            # unmanaged fallback: drop to the best real-time config
            k = realtime_best[g]
            if queue.would_overflow(i, rt[k][0]):
                k = cheapest
        return k, 0

    return simulate(prep, cluster, tables, decide, method="chameleon")
