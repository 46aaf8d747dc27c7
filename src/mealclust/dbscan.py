"""Density-based clustering with a strict epsilon-neighborhood.

Neighborhoods use strict inequality (dist < eps), so two points at
distance exactly eps are NOT neighbors; this diverges from the common
``<=`` convention. A point is a core point when its neighborhood (itself
included) holds at least min_pts points. Labels are fixed by index order,
so identical inputs always yield identical labels:

- clusters are the connected components of the graph of core points
  joined by their eps-neighborhoods, numbered in ascending order of each
  component's lowest core index;
- a non-core point takes the lowest cluster id among its core neighbors,
  or NOISE when it has none.

This is classical DBSCAN (Ester et al., KDD 1996) with points visited in
ascending index order: a border point joins the first cluster to reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mealclust.features import FeatureMatrix
from mealclust.kmeans import _as_array

DEFAULT_MIN_PTS = 5

NOISE = -1


@dataclass
class DbscanResult:
    eps: float
    min_pts: int
    labels: np.ndarray  # (N,) cluster id >= 0, or -1 for noise
    n_clusters: int


def _pairwise_distances(data: np.ndarray) -> np.ndarray:
    diff = data[:, None, :] - data[None, :, :]
    dist = np.einsum("ijd,ijd->ij", diff, diff)
    return np.sqrt(dist, out=dist)  # in place: one (N, N) float array at a time


def eps_neighborhood(p_index: int, m: FeatureMatrix | np.ndarray, eps: float) -> set[int]:
    """Indices strictly closer than eps to point p (p itself included)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    data = _as_array(m)
    diff = data - data[p_index]
    dist = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    return set(np.flatnonzero(dist < eps).tolist())


def _label(adjacent: np.ndarray, min_pts: int) -> tuple[np.ndarray, int]:
    """Cluster labels and cluster count from a symmetric (N, N) boolean
    ``dist < eps`` matrix whose diagonal is True.

    Each cluster grows breadth-first from its lowest unclaimed core index,
    one frontier of newly reached cores at a time; every point within eps
    of a member core that no earlier cluster has claimed joins it.
    """
    n = adjacent.shape[0]
    core = np.count_nonzero(adjacent, axis=1) >= min_pts
    unclaimed_core = core.copy()
    labels = np.full(n, NOISE, dtype=int)
    n_clusters = 0
    for seed in np.flatnonzero(core):
        if not unclaimed_core[seed]:
            continue
        unclaimed_core[seed] = False
        reached = np.zeros(n, dtype=bool)
        frontier = np.array([seed])
        while frontier.size:
            near = adjacent[frontier].any(axis=0)
            reached |= near
            frontier = np.flatnonzero(near & unclaimed_core)
            unclaimed_core[frontier] = False
        labels[reached & (labels == NOISE)] = n_clusters
        n_clusters += 1
    return labels, n_clusters


def dbscan_fits(
    m: FeatureMatrix | np.ndarray, eps_values: list[float], min_pts: int = DEFAULT_MIN_PTS
) -> list[DbscanResult]:
    """One DBSCAN result per eps value, from a single exact O(N^2)
    distance matrix.

    Labels follow the module's ordering rule: clusters numbered by their
    lowest core index, each border point in the lowest-id cluster among
    its core neighbors.
    """
    if any(eps <= 0 for eps in eps_values):
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    dist = _pairwise_distances(_as_array(m))
    adjacent = np.empty(dist.shape, dtype=bool)  # reused, so one (N, N) mask lives at a time
    results = []
    for eps in eps_values:
        np.less(dist, eps, out=adjacent)
        labels, n_clusters = _label(adjacent, min_pts)
        results.append(DbscanResult(eps=eps, min_pts=min_pts, labels=labels, n_clusters=n_clusters))
    return results


def dbscan_fit(m: FeatureMatrix | np.ndarray, eps: float, min_pts: int = DEFAULT_MIN_PTS) -> DbscanResult:
    """Classical DBSCAN over an exact O(N^2) distance scan.

    Clusters are the connected components of the core points, numbered by
    their lowest core index; a border point joins the lowest-id cluster
    among its core neighbors, and a point with no core neighbor is NOISE.
    """
    return dbscan_fits(m, [eps], min_pts)[0]
