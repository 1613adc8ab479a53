"""KMeans clustering (Lloyd's algorithm [52] with k-means++ seeding).

The paper clusters |K|-dimensional quality vectors into content
categories (Section 3.2).  scikit-learn is not available in this
environment, so we implement KMeans in numpy: seeded k-means++
initialization, Lloyd iterations to convergence, ``N_INIT`` restarts
keeping the lowest inertia.  Deterministic in ``seed``.

The summation order is part of the result.  A squared distance adds its
d terms as ``((x[:, None, :] - c[None]) ** 2).sum(axis=2)`` does on
C-ordered ``x`` (numpy's pairwise order), and a cluster mean adds its
points in row order, as ``x[labels == j].mean(axis=0)`` does when d >= 2.
Both run as length-n vector operations on a (d, n) copy of the data.
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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Add the rows of ``a`` into ``a[0]`` in numpy's pairwise order for
    ``len(a)`` contiguous terms: in order below 8 terms; up to 128, eight
    strided partial sums s, ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), then the
    rest in order; above 128, two halves split at a multiple of 8."""
    m = len(a)
    if m > 128:
        h = m // 2 - m // 2 % 8
        _row_sum(a[:h])[...] += _row_sum(a[h:])
        return a[0]
    rest = 1
    if m >= 8:
        for i in range(8, m - m % 8, 8):
            a[:8] += a[i : i + 8]
        a[0:8:2] += a[1:8:2]
        a[0:8:4] += a[2:8:4]
        a[0] += a[4]
        rest = m - m % 8
    for i in range(rest, m):
        a[0] += a[i]
    return a[0]


def _nearest(xt: np.ndarray, centers: np.ndarray, buf: np.ndarray):
    """Labels (first nearest center on a tie) and squared distances to
    them of the columns of the (d, n) ``xt``; ``buf`` is (d, n) scratch."""
    for j, c in enumerate(centers):
        d2 = _row_sum(np.square(np.subtract(xt, c[:, None], out=buf), out=buf))
        if j == 0:
            labels, best = np.zeros(len(d2), dtype=np.intp), d2.copy()
        else:
            labels[d2 < best] = j
            np.minimum(best, d2, out=best)
    return labels, best


def _run(xt: np.ndarray, k: int, rng: np.random.Generator) -> KMeansResult:
    """One k-means++ seeding and its Lloyd iterations."""
    n, buf = xt.shape[1], np.empty_like(xt)
    centers = xt[:, [rng.integers(n)] * k].T.copy()
    for i in range(1, k):
        d2 = _nearest(xt, centers[:i], buf)[1]
        if (total := d2.sum()) <= 0:  # all points identical to the centers
            break
        centers[i] = xt[:, rng.choice(n, p=d2 / total)]
    for _ in range(MAX_ITER):
        labels = _nearest(xt, centers, buf)[0]
        counts = np.bincount(labels, minlength=k)[:, None]
        sums = np.stack([np.bincount(labels, r, minlength=k) for r in xt], 1)
        # an empty cluster keeps its center (it may capture points later)
        new = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        shift, centers = np.abs(new - centers).max(), new
        if shift < TOL:
            break
    labels, d2 = _nearest(xt, centers, buf)
    return KMeansResult(centers=centers, labels=labels, inertia=float(d2.sum()))


def kmeans(x: np.ndarray, k: int, *, seed: int = 0) -> KMeansResult:
    """Cluster rows of ``x`` into ``k`` clusters; best of ``N_INIT`` runs."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (n_samples, n_features)")
    if not 1 <= k <= len(x):
        raise ValueError(f"need 1 <= k={k} <= n_samples={len(x)}")
    xt, rng = np.ascontiguousarray(x.T), np.random.default_rng(seed)
    runs = (_run(xt, k, rng) for _ in range(N_INIT))
    return min(runs, key=lambda r: r.inertia)  # the first best on a tie


def assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels for rows of ``x`` (full-vector classification)."""
    xt = np.ascontiguousarray(np.atleast_2d(x).T, dtype=float)
    return _nearest(xt, centers, np.empty_like(xt))[0]
