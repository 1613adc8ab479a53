"""KMeans clustering (Lloyd's algorithm [52] with k-means++ seeding).

The paper clusters |K|-dimensional quality vectors into content
categories (Section 3.2).  scikit-learn is not available in this
environment, so we implement KMeans in numpy: seeded k-means++
initialization, Lloyd iterations to convergence, ``N_INIT`` restarts
keeping the lowest inertia.  Deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_INIT = 8  # k-means++ restarts
MAX_ITER = 200  # Lloyd iterations per restart
TOL = 1e-7  # convergence: largest center shift


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    inertia: float


def _pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all points identical to chosen centers
            centers[i:] = centers[0]
            break
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray) -> KMeansResult:
    k = len(centers)
    labels = np.zeros(len(x), dtype=int)
    for _ in range(MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = x[mask].mean(axis=0)
            # empty cluster: keep the old center (it may capture points
            # after other centers move)
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < TOL:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(x)), labels].sum())
    return KMeansResult(centers=centers, labels=labels, inertia=inertia)


def kmeans(x: np.ndarray, k: int, *, seed: int = 0) -> KMeansResult:
    """Cluster rows of ``x`` into ``k`` clusters; best of ``N_INIT`` runs."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (n_samples, n_features)")
    if not 1 <= k <= len(x):
        raise ValueError(f"need 1 <= k={k} <= n_samples={len(x)}")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(N_INIT):
        res = _lloyd(x, _pp_init(x, k, rng))
        if best is None or res.inertia < best.inertia:
            best = res
    return best


def assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels for rows of ``x`` (full-vector classification)."""
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)
