"""K-Means clustering (Lloyd iterations) minimizing within-cluster
squared Euclidean distance.

Deterministic given (data, k, seed): greedy distance-weighted seeding
from a seeded PCG64 generator, ties in assignment broken toward the
lowest centroid index, empty clusters repaired by resetting their
centroid to the point farthest from its currently assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mealclust.features import FeatureMatrix

MAX_ITER = 300
TOL = 1e-6


@dataclass
class KMeansModel:
    k: int
    centroids: np.ndarray  # (k, D)
    labels: np.ndarray  # (N,) int
    inertia: float
    inertia_history: list[float]  # one entry per assignment step
    iterations_run: int
    seed: int


def _as_array(m: FeatureMatrix | np.ndarray) -> np.ndarray:
    if isinstance(m, FeatureMatrix):
        return m.data
    return np.asarray(m, dtype=float)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def _centred(data_t: np.ndarray, centres: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x - centre for every centre and point as a C-contiguous (k, N, D)
    array (written into `out` when given), built one coordinate at a time
    from the (D, N) data: one long pass per coordinate instead of N short
    ones."""
    d, n = data_t.shape
    diff = np.empty((len(centres), n, d)) if out is None else out
    for j in range(d):
        np.subtract(data_t[j], centres[:, j, None], out=diff[:, :, j])
    return diff


def _sq_distances(data_t: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from the (D, N) data, shape (k, N)."""
    diff = _centred(data_t, centroids)
    return np.einsum("knd,knd->kn", diff, diff)


def assign(m: FeatureMatrix | np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels; ties go to the lowest centroid index."""
    data = _as_array(m)
    centroids = np.asarray(centroids, dtype=float)
    if data.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: data has {data.shape[1]} columns, centroids {centroids.shape[1]}"
        )
    return np.argmin(_sq_distances(data.T, centroids), axis=0)


def _seed_centroids(data: np.ndarray, data_t: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy distance-weighted seeding (k-means++ style).

    d2 keeps each point's squared distance to its nearest chosen centroid,
    lowered against each new centroid in turn.
    """
    n = data.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        np.minimum(d2, _sq_distances(data_t, data[chosen[-1:]])[0], out=d2)
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining points coincide with chosen centroids
            idx = int(rng.integers(n))
        chosen.append(idx)
    return data[chosen].copy()


def _cluster_means(data: np.ndarray, data_t: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each non-empty cluster's members, shape (k, D); rows of
    empty clusters are left unset.

    Equal bit for bit to ``data[labels == j].mean(axis=0)``. For D >= 2
    that mean adds the members row after row, along a strided axis, and so
    does ``np.bincount`` with weights, in the same order. For D = 1 the
    members form a contiguous axis, which numpy adds pairwise, so there the
    masks stay.
    """
    k, d = len(counts), data.shape[1]
    means = np.empty((k, d))
    nonempty = counts > 0
    if d == 1:
        for j in np.flatnonzero(nonempty):
            means[j] = data[labels == j].mean(axis=0)
        return means
    for c in range(d):
        means[:, c] = np.bincount(labels, weights=data_t[c], minlength=k)
    means[nonempty] /= counts[nonempty, None]
    return means


def kmeans_fit(m: FeatureMatrix | np.ndarray, k: int, seed: int = 0) -> KMeansModel:
    """Fit K-Means by Lloyd iterations.

    Stops when the maximum centroid displacement drops below TOL or
    after MAX_ITER iterations. Single restart; sweeps vary seeds
    explicitly.
    """
    data = _as_array(m)
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    data_t = np.ascontiguousarray(data.T)
    centroids = _seed_centroids(data, data_t, k, rng)

    labels = np.zeros(n, dtype=int)
    inertia = 0.0
    inertia_history: list[float] = []
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        sq = _sq_distances(data_t, centroids)
        labels = np.argmin(sq, axis=0)
        own_dist = sq.min(axis=0)  # each point's distance to its assigned centroid
        inertia = float(own_dist.sum())
        inertia_history.append(inertia)

        counts = np.bincount(labels, minlength=k)
        new_centroids = _cluster_means(data, data_t, labels, counts)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # farthest point from its own assigned centroid seeds the repair
            order = np.argsort(-own_dist, kind="stable")
            for slot, j in enumerate(empty):
                new_centroids[j] = data[order[slot]]

        displacement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if displacement < TOL:
            break

    # final assignment against the converged centroids
    sq = _sq_distances(data_t, centroids)
    labels = np.argmin(sq, axis=0)
    inertia = float(sq.min(axis=0).sum())
    inertia_history.append(inertia)

    return KMeansModel(
        k=k,
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        inertia_history=inertia_history,
        iterations_run=iterations,
        seed=seed,
    )
