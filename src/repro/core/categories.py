"""Content categories (paper Section 3.2).

Skyscraper samples video segments from the unlabeled training data,
processes each with every filtered knob configuration, and clusters the
resulting |K|-dimensional *quality vectors* with KMeans.  A category is a
cluster center [qual_hat(k_1, c), ..., qual_hat(k_K, c)]: the average
quality each configuration achieves on content of that category.

Profiling the (segments x configurations) quality matrix is the Spark
part: segments become a DataFrame, a ``mapInPandas`` stage evaluates all
configurations per batch (this is where real UDF DAGs would run) and
yields one quality vector per segment.  A pure-numpy path exists for small
inputs and as a parity oracle in tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.kmeans import assign, kmeans
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


@dataclass(frozen=True)
class Categories:
    """Fitted content categories over a filtered configuration set."""

    centers: np.ndarray  # (C, K) — sorted by ascending mean quality

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def n_configs(self) -> int:
        return self.centers.shape[1]

    def classify_full(self, quality_vectors: np.ndarray) -> np.ndarray:
        """Ground-truth style classification using all |K| dimensions."""
        return assign(np.atleast_2d(quality_vectors), self.centers)

    def classify_1d(self, k_idx, quality) -> np.ndarray:
        """Online classification (paper Eq. 5): nearest center using only
        the dimension of the running configuration ``k_idx`` (one index,
        or one per quality value)."""
        q = np.atleast_1d(np.asarray(quality, dtype=float))
        d = np.abs(self.centers[:, k_idx].T - q[:, None])
        return d.argmin(axis=1)

    def qual_hat(self) -> np.ndarray:
        """(K, C) expected-quality matrix for the planner LP."""
        return self.centers.T


def sample_segment_indices(
    trace: ContentTrace, *, sample_frac: float, seed: int
) -> np.ndarray:
    rng = np.random.default_rng((seed, 0x5A3217))
    n = trace.n_segments
    size = max(2, int(round(n * sample_frac)))
    size = min(size, n)
    return np.sort(rng.choice(n, size=size, replace=False))


def quality_vectors_numpy(
    wl: Workload,
    trace: ContentTrace,
    configs: list[Config],
    idx: np.ndarray,
    *,
    seed: int = 0,
) -> np.ndarray:
    """(n_samples, K) reported-quality matrix, reference implementation."""
    q = wl.observed_quality(
        configs,
        trace.difficulty[idx],
        trace.global_ids()[idx],
        seed=seed,
        mult=trace.work_multiplier[idx],
    )
    # row-major: numpy's summation order, hence KMeans, follows the layout
    return np.ascontiguousarray(q.T)


def quality_vectors_spark(
    spark,
    wl: Workload,
    trace: ContentTrace,
    configs: list[Config],
    idx: np.ndarray,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Same quality matrix, computed as a Spark dataflow.

    ``createDataFrame`` slices the sampled segments over the default
    parallelism; each ``mapInPandas`` batch evaluates every configuration
    on its slice (in a real deployment this is where the UDF DAG executes
    on the cluster) and yields one wide row per segment, so the driver
    only sorts the rows back into sample order.
    """
    dims = list(wl.dims)
    cols = [f"q{k}" for k in range(len(configs))]
    pdf = pd.DataFrame(trace.difficulty[idx], columns=dims)
    pdf.insert(0, "pos", np.arange(len(idx)))
    pdf["gid"] = trace.global_ids()[idx]
    pdf["mult"] = trace.work_multiplier[idx]

    def eval_configs(batches):
        for b in batches:
            q = wl.observed_quality(
                configs,
                b[dims].to_numpy(dtype=float),
                b["gid"].to_numpy(),
                seed=seed,
                mult=b["mult"].to_numpy(dtype=float),
            )
            out = pd.DataFrame(q.T, columns=cols)
            out.insert(0, "pos", b["pos"].to_numpy())
            yield out

    schema = ", ".join(["pos long"] + [f"{c} double" for c in cols])
    wide = (
        spark.createDataFrame(pdf)
        .mapInPandas(eval_configs, schema=schema)
        .toPandas()
        .sort_values("pos")
    )
    # row-major, as the numpy path returns it
    return np.ascontiguousarray(wide[cols].to_numpy(dtype=float))


def fit_categories(
    quality_vectors: np.ndarray, n_categories: int, *, seed: int = 0
) -> Categories:
    """KMeans on the quality vectors; centers sorted by ascending mean
    quality so category 0 is always the hardest content."""
    res = kmeans(quality_vectors, n_categories, seed=seed)
    order = np.argsort(res.centers.mean(axis=1))
    return Categories(centers=res.centers[order])
