"""Workload model: knobs, cost model, quality model, task graphs.

A *workload* is the user-provided part of a V-ETL job (red boxes in the
paper's Figure 1): a DAG of UDFs plus registered knobs with their value
domains.  Skyscraper itself is agnostic to what the UDFs compute — it only
sees, per knob configuration k:

* the *work* w(k) it induces (core-seconds per second of video), measured
  by profiling in the offline phase,
* the *quality* qual(k, s) the user code reports per segment s,
* the task graph G_k with per-node on-premise runtimes, cloud round-trip
  times, and payload sizes (used for placement search and simulation).

Since we substitute real CV models with analytic models (DESIGN.md §2),
each workload here defines a *capability vector* per configuration; the
quality on a segment is a smooth function of capability minus the
segment's latent difficulty.  The observation noise on reported quality
reproduces the fact that user-reported quality metrics (model
certainties, tracker errors) are noisy estimates of true accuracy.
"""
from __future__ import annotations

import abc
import itertools
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.video.content import (
    SECONDS_PER_DAY,
    ContentParams,
    ContentTrace,
    generate,
    hash_normal,
    segment_range,
)

Config = tuple  # one value per knob, aligned with Workload.knobs


@dataclass(frozen=True)
class KnobSpec:
    """A user-registered knob: a name and its finite value domain."""

    name: str
    domain: tuple


@dataclass(frozen=True)
class TaskNode:
    """One UDF stage per segment in a configuration's task graph.

    A stage covers all invocations of one UDF on one segment (e.g. all
    detector calls): ``width`` independent sub-tasks that the scheduler
    can spread over cores (or parallel cloud functions), totalling
    ``onprem_s`` core-seconds on premises.  ``cloud_s`` is the cloud
    execution latency of *one* sub-task including the HTTPS round trip
    (sub-tasks run on parallel Lambda workers; billing is by compute,
    i.e. ``onprem_s`` core-seconds).  The simulator adds up/down
    transfer times from the payload sizes.  ``pin_onprem`` marks stages
    that cannot be offloaded (e.g. decode, which needs the raw stream).
    """

    name: str
    onprem_s: float
    cloud_s: float
    up_bytes: float
    down_bytes: float
    pin_onprem: bool = False
    width: int = 1


@dataclass(frozen=True)
class TaskGraph:
    """DAG of task nodes; edges are (src_index, dst_index)."""

    nodes: tuple[TaskNode, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.nodes)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for {n} nodes")
            if a >= b:
                raise ValueError("edges must go from lower to higher index")

    @property
    def total_onprem_s(self) -> float:
        return sum(nd.onprem_s for nd in self.nodes)


class Workload(abc.ABC):
    """Abstract V-ETL workload (COVID / MOT / MOSEI variants)."""

    name: str
    knobs: tuple[KnobSpec, ...]
    seg_len: float
    dims: tuple[str, ...]
    tau: float = 0.09
    quality_floor: float = 0.35
    # One traffic-camera feed produces 7.8 GB/day (paper footnote 2).
    bitrate_bytes_per_s: float = 7.8e9 / SECONDS_PER_DAY
    quality_noise: float = 0.02
    test_days: float = 8.0
    train_days: float = 16.0

    # -- knob configurations ------------------------------------------------
    def all_configs(self) -> list[Config]:
        """Cross product of all knob domains (exponential, offline only)."""
        return [
            tuple(v)
            for v in itertools.product(*(k.domain for k in self.knobs))
        ]

    # -- cost / quality models ---------------------------------------------
    def work_per_vs(self, cfg: Config) -> float:
        """core-seconds of work per second of video, at multiplier 1.

        Derived from the configuration's task graph (single source of
        truth between the cost model and the runtime simulator), memoized
        per configuration.
        """
        cache = self.__dict__.setdefault("_work_cache", {})
        if cfg not in cache:
            cache[cfg] = self.task_graph(cfg).total_onprem_s / self.seg_len
        return cache[cfg]

    @abc.abstractmethod
    def capability(self, cfg: Config) -> np.ndarray:
        """Capability vector in [0, 1]^D."""

    def base_quality(self, cfg: Config) -> float:
        """Content-independent quality ceiling of the configuration."""
        return 1.0

    def mass(
        self, difficulty: np.ndarray, mult: np.ndarray | float = 1.0
    ) -> np.ndarray:
        """Quality *mass* of each segment.

        The paper's quality metrics are extensive: "person * seconds
        recorded" (COVID), "number of people correctly tracked" (MOT),
        "certainty-weighted sum over ingested streams" (MOSEI).  A quiet
        night segment simply has little quality to win, while rush hour
        carries most of the quality mass — which is exactly why spending
        the budget on hard content pays off.  Default: proportional to
        the primary difficulty dimension (the object count); MOSEI
        overrides this with the concurrent-stream count.
        """
        d0 = np.atleast_2d(difficulty)[:, 0]
        return 0.15 + 2.6 * d0**1.7

    def accuracy_rows(
        self, configs: list[Config], difficulty: np.ndarray
    ) -> Iterator[tuple[slice, int, np.ndarray]]:
        """Yield ``(rows, i, acc)``: ``acc`` is the noiseless accuracy in
        [0, 1] of ``configs[i]`` on the segments ``rows`` of the (n, D)
        ``difficulty`` matrix: base quality x the product over dimensions
        of the floored sigmoid of (capability - difficulty) / tau.
        Failing on *one* dimension (e.g. occlusions during rush hour)
        tanks the accuracy, as cheap configurations are "prone to
        mistakes on difficult inputs"; the floor keeps it from zeroing (a
        detector that cannot handle occlusions still detects the
        unoccluded people).  Ground truth and reported quality both scale
        these rows.

        The segments are walked in order, in blocks of
        ``np.getbufsize()`` rows (numpy's reduction buffer, 8192 by
        default), and each block yields every configuration.  Within a
        block each (dimension, capability value) factor column is
        computed once, and the configurations are visited in
        lexicographic capability order while the running products of
        the factors are kept, so a capability that differs from the
        previous one first at dimension j multiplies only from j on.  The
        factors multiply left to right, so every value is bit-identical
        to the per-configuration product, and memory is a block's factor
        columns whatever the length of the trace.
        """
        caps = [tuple(self.capability(c)) for c in configs]
        base = [self.base_quality(c) for c in configs]
        order = sorted(range(len(configs)), key=caps.__getitem__)
        step = np.getbufsize()
        for lo in range(0, len(difficulty), step):
            rows = slice(lo, lo + step)
            diff = difficulty[rows]
            factor: dict = {}  # (d, capability value) -> factor column
            prev: tuple = ()
            prefix: list[np.ndarray] = []  # prefix[d] = f_0 * ... * f_d
            for i in order:
                cap = caps[i]
                j = next(
                    (d for d, (a, b) in enumerate(zip(cap, prev)) if a != b),
                    len(prev),
                )
                del prefix[j:]
                for d in range(j, len(cap)):
                    f = factor.get((d, cap[d]))
                    if f is None:
                        z = (cap[d] - diff[:, d]) / self.tau
                        s = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
                        f = self.quality_floor + (1.0 - self.quality_floor) * s
                        factor[d, cap[d]] = f
                    prefix.append(prefix[-1] * f if prefix else f)
                prev = cap
                yield rows, i, base[i] * prefix[-1]

    def accuracies(
        self, configs: list[Config], difficulty: np.ndarray
    ) -> np.ndarray:
        """(K, n) :meth:`accuracy_rows`, row i for ``configs[i]``."""
        out = np.empty((len(configs), len(difficulty)))
        for rows, i, acc in self.accuracy_rows(configs, difficulty):
            out[i, rows] = acc
        return out

    def quality_curves(
        self, configs: list[Config], trace: ContentTrace
    ) -> np.ndarray:
        """(K, n) noiseless quality (ground truth), row i for
        ``configs[i]``: mass x accuracy."""
        out = self.accuracies(configs, trace.difficulty)
        out *= self.mass(trace.difficulty, trace.work_multiplier)
        return out

    def mean_quality(
        self, configs: list[Config], trace: ContentTrace
    ) -> np.ndarray:
        """(K,) mean noiseless quality over the trace, per configuration,
        bit-identical to ``(mass * acc).mean()`` over the whole trace.

        numpy sums a contiguous 1-D float64 array in chunks of
        ``np.getbufsize()`` elements: each chunk pairwise, the chunk sums
        added in order.  :meth:`accuracy_rows` yields blocks of exactly
        those chunks, so adding each block's ``sum()`` to a running total,
        block after block, repeats that order without holding a row of
        the whole trace.
        """
        mass = self.mass(trace.difficulty, trace.work_multiplier)
        total = np.zeros(len(configs))
        for rows, i, acc in self.accuracy_rows(configs, trace.difficulty):
            total[i] += (mass[rows] * acc).sum()
        return total / trace.n_segments

    def noise_key(self, cfg: Config, seed: int) -> int:
        """Stable per-(seed, config) noise key.  zlib.crc32 instead of
        hash(): str hashing is salted per process, which would break
        determinism across Spark workers."""
        return (seed * 0x1000003) ^ zlib.crc32(repr(cfg).encode())

    def observed_quality(
        self,
        configs: list[Config],
        difficulty: np.ndarray,
        ids: np.ndarray,
        *,
        seed: int,
        mult: np.ndarray | float,
    ) -> np.ndarray:
        """(K, n) quality as *reported* by the user code for segments
        identified by global ids, row i for ``configs[i]``.

        Noise is a pure function of (seed, config, segment id) so results
        are identical regardless of slicing or Spark partitioning.  Noise
        applies to the accuracy (the CV model's certainty estimate is
        noisy), then the mass scales it — the object count itself is
        observable.
        """
        out = self.report_accuracies(
            self.accuracies(configs, difficulty), configs, ids, seed=seed
        )
        out *= self.mass(difficulty, mult)
        return out

    def report_accuracies(
        self,
        acc: np.ndarray,
        configs: list[Config],
        ids: np.ndarray,
        *,
        seed: int,
    ) -> np.ndarray:
        """Turn the (K, n) :meth:`accuracies` ``acc`` into the accuracy
        the user code reports, in place: row i plus ``configs[i]``'s
        noise over segments ``ids``, clipped to [0, 1]."""
        for row, cfg in zip(acc, configs):
            noise = hash_normal(self.noise_key(cfg, seed), ids)
            np.clip(row + self.quality_noise * noise, 0.0, 1.0, out=row)
        return acc

    # -- content ------------------------------------------------------------
    @abc.abstractmethod
    def content_params(self) -> ContentParams:
        ...

    def segments(self, *, seed: int, gid0: int, n: int) -> ContentTrace:
        """Content of the stream's segments ``[gid0, gid0 + n)``."""
        return generate(self.content_params(), seed=seed, gid0=gid0, n=n)

    def content(
        self, *, seed: int, n_days: float, start_day: float = 0.0
    ) -> ContentTrace:
        """Content of the segments covering ``n_days`` from ``start_day``."""
        gid0, n = segment_range(self.seg_len, n_days, start_day)
        return self.segments(seed=seed, gid0=gid0, n=n)

    # -- task graph ----------------------------------------------------------
    @abc.abstractmethod
    def task_graph(self, cfg: Config) -> TaskGraph:
        """Per-segment task graph for configuration ``cfg``."""

    # -- helpers -------------------------------------------------------------
    def cheapest_config(self) -> Config:
        return min(self.all_configs(), key=self.work_per_vs)

    def best_config(self) -> Config:
        """Most qualitative configuration (highest capability norm)."""
        return max(
            self.all_configs(),
            key=lambda c: (
                self.base_quality(c) * float(self.capability(c).mean()),
                -self.work_per_vs(c),
            ),
        )
