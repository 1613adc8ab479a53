"""Offline knob-configuration filtering (paper Section 3.1 / Appendix A.1).

The number of knob configurations is exponential in the number of knobs
(COVID: 40, MOT: 96, MOSEI: 504).  Skyscraper filters them down to a
small set K on the work-quality Pareto frontier:

1. find the cheapest configuration k- and the most qualitative k+;
2. sample ``N_PRE`` segments, record the (qual(k-), qual(k+)) 2-D quality
   vector of each, and greedily select ``N_SEARCH`` segments with
   maximally different content via max-min distance selection;
3. on each selected segment, run greedy hill climbing [67] from k- as in
   VideoStorm [81], and keep the per-segment Pareto frontier of visited
   configurations;
4. K is the union of the per-segment frontiers (plus k- and k+).
"""
from __future__ import annotations

import numpy as np

from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload

N_PRE = 60  # segments sampled for the 2-D quality vectors
N_SEARCH = 4  # of those, segments hill climbing runs on
MAX_CONFIGS = 10  # cap on |K|
MAX_STEPS = 60  # hill-climbing steps per segment
HALF_WINDOW = 5  # segments either side of a searched segment


def pareto_front(cost: np.ndarray, qual: np.ndarray) -> list[int]:
    """Indices not dominated in (lower cost, higher quality)."""
    order = sorted(range(len(cost)), key=lambda i: (cost[i], -qual[i]))
    keep: list[int] = []
    best_q = -np.inf
    for i in order:
        if qual[i] > best_q + 1e-12:
            keep.append(i)
            best_q = qual[i]
    return keep


def maxmin_select(vectors: np.ndarray, n_select: int) -> list[int]:
    """Greedy max-min-distance subset selection (Appendix A.1).

    Starts from the vector with the smallest L2 norm, then repeatedly
    adds the vector whose distance to its closest already-selected vector
    is largest.
    """
    n = len(vectors)
    n_select = min(n_select, n)
    first = int(np.linalg.norm(vectors, axis=1).argmin())
    selected = [first]
    d_min = np.linalg.norm(vectors - vectors[first], axis=1)
    for _ in range(n_select - 1):
        nxt = int(d_min.argmax())
        selected.append(nxt)
        d_min = np.minimum(d_min, np.linalg.norm(vectors - vectors[nxt], axis=1))
    return selected


def _segment_quality(
    wl: Workload, configs: list[Config], trace: ContentTrace, idx: int
) -> list[float]:
    """Mean noiseless quality of each configuration on a short window
    around ``idx`` (hill climbing judges configurations on a video
    segment, i.e. a few seconds of content, not a single 2 s slice)."""
    lo = max(0, idx - HALF_WINDOW)
    hi = min(trace.n_segments, idx + HALF_WINDOW + 1)
    return wl.mean_quality(configs, trace.slice(lo, hi)).tolist()


def hill_climb(
    wl: Workload,
    trace: ContentTrace,
    seg_idx: int,
    *,
    start: Config,
) -> list[Config]:
    """Greedy hill climbing from ``start`` on one sampled segment.

    At each step, evaluates all single-knob changes of the current
    configuration and moves to the one with the best incremental
    quality-per-work ratio; stops when no change improves quality.
    Returns all visited configurations.
    """
    visited: dict[Config, None] = {start: None}
    current = start
    [cur_q] = _segment_quality(wl, [current], trace, seg_idx)
    cur_w = wl.work_per_vs(current)
    for _ in range(MAX_STEPS):
        cands = [
            tuple(val if j == ki else current[j] for j in range(len(current)))
            for ki, knob in enumerate(wl.knobs)
            for val in knob.domain
            if val != current[ki]
        ]
        # every *evaluated* neighbour joins the Pareto pool — the climb
        # may step past a cost-quality sweet spot that a later Pareto
        # filter should still be able to keep
        visited.update(dict.fromkeys(cands))
        best = None
        best_ratio = 0.0
        for cand, q in zip(cands, _segment_quality(wl, cands, trace, seg_idx)):
            w = wl.work_per_vs(cand)
            dq, dw = q - cur_q, w - cur_w
            if dq <= 1e-4:
                continue
            ratio = dq / max(dw, 1e-9)
            if ratio > best_ratio:
                best, best_ratio = (cand, q, w), ratio
        if best is None:
            break
        current, cur_q, cur_w = best
    return list(visited)


def filter_knob_configs(
    wl: Workload,
    trace: ContentTrace,
    *,
    seed: int = 0,
) -> list[Config]:
    """Appendix A.1 end to end; returns K sorted by increasing work."""
    k_minus = wl.cheapest_config()
    k_plus = wl.best_config()

    rng = np.random.default_rng((seed, 0xF117E2))
    n_pre = min(N_PRE, trace.n_segments)
    pre_idx = np.sort(
        rng.choice(trace.n_segments, size=n_pre, replace=False)
    )
    q_pre = np.array(
        [
            _segment_quality(wl, [k_minus, k_plus], trace, int(i))
            for i in pre_idx
        ]
    )
    search_idx = [int(pre_idx[j]) for j in maxmin_select(q_pre, N_SEARCH)]

    union: dict[Config, None] = {k_minus: None, k_plus: None}
    for si in search_idx:
        visited = hill_climb(wl, trace, si, start=k_minus)
        cost = np.array([wl.work_per_vs(c) for c in visited])
        qual = np.array(_segment_quality(wl, visited, trace, si))
        for j in pareto_front(cost, qual):
            union[visited[j]] = None

    configs = sorted(union, key=wl.work_per_vs)
    if len(configs) > MAX_CONFIGS:
        # Keep the global Pareto frontier on (work, mean pre-sample
        # quality), always retaining the extremes k- and k+.
        cost = np.array([wl.work_per_vs(c) for c in configs])
        per_segment = [
            _segment_quality(wl, configs, trace, i) for i in search_idx
        ]
        qual = np.array([np.mean(q) for q in zip(*per_segment)])
        keep = set(pareto_front(cost, qual)) | {0, len(configs) - 1}
        configs = [c for j, c in enumerate(configs) if j in keep]
        if len(configs) > MAX_CONFIGS:
            # Thin evenly across the work range, keeping the extremes.
            pick = np.unique(
                np.linspace(0, len(configs) - 1, MAX_CONFIGS).round().astype(int)
            )
            configs = [configs[int(j)] for j in pick]
    return configs
