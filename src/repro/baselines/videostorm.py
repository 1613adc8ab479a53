"""VideoStorm* baseline (paper Appendix G).

VideoStorm [81] tunes knobs to the *query load*, not the content.  With
a static V-ETL job set, its behaviour degenerates: it picks the most
qualitative configuration that fits the available resources, spending
buffer headroom greedily.  As the paper observes (Figure 19), it fills
the buffer early in the run and from then on matches the static
baseline — except when a workload spike happens to arrive before the
buffer is exhausted (MOSEI-HIGH's lucky first peak).
"""
from __future__ import annotations

from collections.abc import Mapping

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


def run_videostorm(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    train_trace: ContentTrace | None,
    *,
    seed: int = 0,
    configs: list[Config] | None = None,
    mean_q: Mapping[Config, float] | None = None,
) -> RunResult:
    """Content-agnostic greedy quality maximization under the buffer.

    ``configs`` (fit step 1's filtered set) and ``mean_q`` (mean quality
    on the training trace, per configuration) are computed from
    ``train_trace`` when None.
    """
    if configs is None:
        configs = filter_knob_configs(wl, train_trace, seed=seed)
    prep = prepare(wl, configs, trace, seed=seed)
    tables = build_placement_tables(
        wl, configs, cluster, prep.mult_grid, enable_cloud=False
    )
    # content-agnostic quality ranking: mean quality on training data
    if mean_q is None:
        train_q = wl.mean_quality(configs, train_trace)
    else:
        train_q = np.array([mean_q[c] for c in configs])
    rank = np.argsort(-train_q).tolist()  # best quality first

    def decide(i, g, rt, usd, queue):
        for k in rank:
            if not queue.would_overflow(i, rt[k][0]):
                return k, 0
        return rank[-1], 0

    return simulate(prep, cluster, tables, decide, method="videostorm")
