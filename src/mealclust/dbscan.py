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

A sweep labels every eps from one minimum spanning tree. Let cd_i be the
min_pts-th smallest distance from point i, i itself counted at 0; then i
is a core point at eps exactly when cd_i < eps, and two core points are
joined at eps exactly when max(d_ij, cd_i, cd_j) < eps. That is the
HDBSCAN* mutual-reachability weight (Campello, Moulavi & Sander, PAKDD
2013), so the core clusters at every eps are the components of its
minimum spanning tree cut below eps (Schubert et al., "DBSCAN Revisited,
Revisited", TODS 2017).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mealclust.features import FeatureMatrix
from mealclust.kmeans import _as_array

DEFAULT_MIN_PTS = 5

NOISE = -1

# Rows of distances taken at once in the blocked passes.
BLOCK_ROWS = 256


@dataclass
class DbscanResult:
    eps: float
    min_pts: int
    labels: np.ndarray  # (N,) cluster id >= 0, or -1 for noise
    n_clusters: int


def check_params(eps_values: Sequence[float], min_pts: int) -> None:
    """Raise ValueError unless the eps list is non-empty, every eps is
    finite and positive, and min_pts is at least 1."""
    if not eps_values:
        raise ValueError("eps_values must be non-empty")
    if not all(0 < eps < math.inf for eps in eps_values):
        raise ValueError("eps must be finite and positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")


def _distances(cols: np.ndarray, points: slice | np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Distances from the points `points` (an index array or slice) to all
    N points, written into `out` of shape (len(points), N); `scratch` is
    a buffer of the same shape.

    Built one coordinate at a time from the (D, N) columns `cols`, with
    the squares summed in coordinate order and one square root, so a
    distance has the same bits in every block of rows it is taken in,
    and d_ij equals d_ji.
    """
    out.fill(0.0)
    for col in cols:
        np.subtract(col, col[points, None], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)
    return np.sqrt(out, out=out)


def eps_neighborhood(p_index: int, m: FeatureMatrix | np.ndarray, eps: float) -> set[int]:
    """Indices strictly closer than eps to point p (p itself included)."""
    check_params([eps], 1)
    cols = _as_array(m).T
    row = np.empty((2, 1, cols.shape[1]))
    dist = _distances(cols, np.array([p_index]), *row)[0]
    return set(np.flatnonzero(dist < eps).tolist())


def _core_distances(cols: np.ndarray, min_pts: int, block: np.ndarray) -> np.ndarray:
    """cd_i, the min_pts-th smallest distance from point i with i itself
    counted at 0, or inf when min_pts > N. Point i is a core point at eps
    exactly when cd_i < eps. `block` holds two (BLOCK_ROWS, N) buffers."""
    n = cols.shape[1]
    core_dist = np.full(n, np.inf)
    if min_pts > n:
        return core_dist
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        dist = _distances(cols, slice(start, stop), *block[:, : stop - start])
        dist.partition(min_pts - 1, axis=1)
        core_dist[start:stop] = dist[:, min_pts - 1]
    return core_dist


def _spanning_tree(cols: np.ndarray, core_dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's minimum spanning tree under the mutual-reachability weight
    max(d_ij, cd_i, cd_j), one distance row per step, rooted at point 0.
    Returns (parent, weight): each point's parent and the weight of the
    edge to it. The weight is inf at the root and at any point that joins
    with no finite edge (min_pts > N, or NaN input)."""
    n = len(core_dist)
    weight = np.full(n, np.inf)
    parent = np.zeros(n, dtype=np.intp)
    best = np.full(n, np.inf)  # lightest edge from each point into the tree
    reach = core_dist.copy()  # inf once a point is in the tree, so its edges never improve
    in_tree = np.zeros(n, dtype=bool)
    row = np.empty((2, 1, n))
    lighter = np.empty(n, dtype=bool)
    cur = 0
    for _ in range(n - 1):
        in_tree[cur] = True
        reach[cur] = best[cur] = np.inf
        w = _distances(cols, slice(cur, cur + 1), *row)[0]
        np.maximum(w, reach, out=w)
        np.maximum(w, core_dist[cur], out=w)
        np.less(w, best, out=lighter)
        np.copyto(best, w, where=lighter)
        np.copyto(parent, cur, where=lighter)
        cur = int(best.argmin())
        if in_tree[cur]:  # no finite edge left: join at weight inf
            cur = int(in_tree.argmin())
        weight[cur] = best[cur]
    return parent, weight


def _core_labels(parent: np.ndarray, weight: np.ndarray, core_dist: np.ndarray,
                 eps_values: list[float]) -> list[np.ndarray]:
    """Labels of the core points at each eps, NOISE elsewhere.

    The core clusters at eps are the components of the tree's edges
    lighter than eps. Each point points at its parent across such an edge
    and at itself otherwise; pointer jumping takes every point to its
    component's top, and a cluster's id is the rank of the component's
    lowest index among the core components. An edge lighter than eps
    joins two core points (its weight is at least both core distances),
    so a non-core point is alone in its component.
    """
    n = len(core_dist)
    index = np.arange(n)
    labelled = []
    for eps in eps_values:
        top = np.where(weight < eps, parent, index)
        while not np.array_equal(up := top[top], top):
            top = up
        lowest = np.full(n, n)
        np.minimum.at(lowest, top, index)
        core = core_dist < eps
        labels = np.full(n, NOISE, dtype=int)
        labels[core] = np.unique(lowest[top[core]], return_inverse=True)[1]
        labelled.append(labels)
    return labelled


def _label_borders(cols: np.ndarray, core_dist: np.ndarray, eps_values: list[float],
                   labelled: list[np.ndarray], block: np.ndarray) -> None:
    """Give each point that is not core at an eps the lowest label among the
    core points closer than eps, in place; it stays NOISE when there is
    none. One blocked pass over the rows of such points."""
    n = len(core_dist)
    core_ids = [np.where(labels == NOISE, n, labels) for labels in labelled]  # n: not a core
    candidates = np.flatnonzero(core_dist >= min(eps_values))
    within = np.empty(block.shape[1:], dtype=bool)
    for start in range(0, len(candidates), BLOCK_ROWS):
        rows = candidates[start : start + BLOCK_ROWS]
        dist = _distances(cols, rows, *block[:, : len(rows)])
        near = within[: len(rows)]
        for eps, labels, ids in zip(eps_values, labelled, core_ids):
            border = core_dist[rows] >= eps
            if not border.any():
                continue
            np.less(dist, eps, out=near)
            owner = np.min(np.broadcast_to(ids, near.shape), axis=1, where=near, initial=n)
            labels[rows[border]] = np.where(owner < n, owner, NOISE)[border]


def dbscan_fits(
    m: FeatureMatrix | np.ndarray, eps_values: list[float], min_pts: int = DEFAULT_MIN_PTS
) -> list[DbscanResult]:
    """One DBSCAN result per eps value, in the caller's order, from one
    mutual-reachability spanning tree in O(N) memory: distances are taken
    BLOCK_ROWS rows or one row at a time, never as an N x N matrix. The
    tree is held as a parent per point and cut once per eps.

    Labels follow the module's ordering rule: clusters numbered by their
    lowest core index, each border point in the lowest-id cluster among
    its core neighbors. A repeated eps gets its own labels array.
    """
    check_params(eps_values, min_pts)
    cols = np.ascontiguousarray(_as_array(m).T)
    n = cols.shape[1]
    block = np.empty((2, min(BLOCK_ROWS, n), n))
    core_dist = _core_distances(cols, min_pts, block)
    labelled = _core_labels(*_spanning_tree(cols, core_dist), core_dist, eps_values)
    _label_borders(cols, core_dist, eps_values, labelled, block)
    return [
        DbscanResult(eps=eps, min_pts=min_pts, labels=labels, n_clusters=int(labels.max(initial=NOISE)) + 1)
        for eps, labels in zip(eps_values, labelled)
    ]


def dbscan_fit(m: FeatureMatrix | np.ndarray, eps: float, min_pts: int = DEFAULT_MIN_PTS) -> DbscanResult:
    """DBSCAN at one eps: the cut of `dbscan_fits`' spanning tree below eps.

    Clusters are the connected components of the core points, numbered by
    their lowest core index; a border point joins the lowest-id cluster
    among its core neighbors, and a point with no core neighbor is NOISE.
    """
    return dbscan_fits(m, [eps], min_pts)[0]
