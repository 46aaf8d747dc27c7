import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealclust import dbscan as dbscan_mod
from mealclust.dbscan import DEFAULT_MIN_PTS, NOISE, dbscan_fit, dbscan_fits, eps_neighborhood
from mealclust.episodes import segment_episodes
from mealclust.events import filter_meal_locations
from mealclust.features import FeatureMatrix, build_features, scale_features
from mealclust.synth import default_profile, generate_trace
from mealclust.validation import DEFAULT_EPS_VALUES, sweep_dbscan


def matrix(data):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data=data, feature_names=[f"f{i}" for i in range(data.shape[1])])


def reference_dbscan(data, eps, min_pts):
    """Brute-force reference: cores via pairwise scan, clusters as
    connected components of the core-proximity graph ordered by minimum
    core index, borders attached to the earliest-ordered cluster with a
    core neighbor."""
    n = len(data)
    dist = np.sqrt(((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2))
    neighbors = [set(np.flatnonzero(dist[i] < eps)) for i in range(n)]
    cores = [i for i in range(n) if len(neighbors[i]) >= min_pts]
    core_set = set(cores)

    # connected components over cores only
    comp_of = {}
    components = []
    for c in cores:
        if c in comp_of:
            continue
        comp = set()
        stack = [c]
        while stack:
            p = stack.pop()
            if p in comp:
                continue
            comp.add(p)
            comp_of[p] = None
            stack.extend(q for q in neighbors[p] if q in core_set and q not in comp)
        components.append(comp)
    components.sort(key=min)  # discovery order = ascending minimum core index
    labels = np.full(n, NOISE, dtype=int)
    for cid, comp in enumerate(components):
        for p in comp:
            labels[p] = cid
    for i in range(n):
        if labels[i] != NOISE:
            continue
        owning = [labels[q] for q in neighbors[i] if q in core_set]
        if owning:
            labels[i] = min(owning)
    return labels


def reference_fifo_dbscan(data, eps, min_pts):
    """Classical DBSCAN as a FIFO seed-queue expansion: points visited in
    ascending index order, border points kept by the first cluster that
    reaches them. dbscan_fits must reproduce its labels and cluster count
    exactly. Returns (labels, n_clusters)."""
    unvisited = -2
    n = len(data)
    diff = data[:, None, :] - data[None, :, :]
    dist = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
    neighborhoods = [np.flatnonzero(dist[i] < eps).tolist() for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighborhoods]

    labels = [unvisited] * n
    cluster_id = 0
    for i in range(n):
        if labels[i] != unvisited:
            continue
        if not core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cluster_id
        queue = deque(neighborhoods[i])
        while queue:
            q = queue.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster_id  # border point, do not expand
            if labels[q] != unvisited:
                continue
            labels[q] = cluster_id
            if core[q]:
                queue.extend(neighborhoods[q])
        cluster_id += 1
    return np.array(labels, dtype=int), cluster_id


def _pairwise_distances(data: np.ndarray) -> np.ndarray:
    diff = data[:, None, :] - data[None, :, :]
    dist = np.einsum("ijd,ijd->ij", diff, diff)
    return np.sqrt(dist, out=dist)  # in place: one (N, N) float array at a time


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


def reference_matrix_fits(data, eps_values, min_pts):
    """The former one-matrix sweep: every eps labelled from a single
    (N, N) distance matrix by a breadth-first growth of each cluster.
    dbscan_fits must give the same labels and cluster counts. Returns a
    (labels, n_clusters) pair per eps."""
    dist = _pairwise_distances(np.asarray(data, dtype=float))
    adjacent = np.empty(dist.shape, dtype=bool)  # reused, so one (N, N) mask lives at a time
    results = []
    for eps in eps_values:
        np.less(dist, eps, out=adjacent)
        results.append(_label(adjacent, min_pts))
    return results


def assert_fits_match_references(data, eps_values, min_pts):
    results = dbscan_fits(matrix(data), eps_values, min_pts)
    assert [r.eps for r in results] == list(eps_values)
    for eps, result in zip(eps_values, results):
        want, want_clusters = reference_fifo_dbscan(data, eps, min_pts)
        assert np.array_equal(result.labels, want), f"eps={eps}"
        assert result.n_clusters == want_clusters, f"eps={eps}"
        want = reference_dbscan(data, eps, min_pts)
        assert np.array_equal(result.labels, want), f"eps={eps}"
        assert result.n_clusters == len(set(want.tolist()) - {NOISE}), f"eps={eps}"


def test_neighborhood_strict_at_exact_eps():
    m = matrix([[0.0, 0.0], [3.0, 0.0]])
    assert eps_neighborhood(0, m, 3.0) == {0}
    assert eps_neighborhood(1, m, 3.0) == {1}


def test_neighborhood_saturation():
    rng = np.random.default_rng(2)
    m = matrix(rng.uniform(0, 1, size=(30, 2)))
    assert eps_neighborhood(4, m, 100.0) == set(range(30))


def test_neighborhood_requires_positive_eps():
    with pytest.raises(ValueError):
        eps_neighborhood(0, matrix([[0.0]]), 0.0)


def test_neighborhood_matches_bruteforce():
    rng = np.random.default_rng(7)
    m = matrix(rng.uniform(0, 10, size=(50, 2)))
    for _ in range(20):
        p = int(rng.integers(0, 50))
        eps = float(rng.uniform(0.5, 8.0))
        expected = {
            q for q in range(50)
            if np.sqrt(((m.data[p] - m.data[q]) ** 2).sum()) < eps
        }
        assert eps_neighborhood(p, m, eps) == expected


def test_min_pts_one_saturating_eps():
    rng = np.random.default_rng(3)
    m = matrix(rng.uniform(0, 1, size=(20, 2)))
    result = dbscan_fit(m, eps=10.0, min_pts=1)
    assert result.n_clusters == 1
    assert (result.labels == 0).all()


def test_isolated_outlier_is_noise():
    rng = np.random.default_rng(4)
    blob = rng.normal(0, 0.2, size=(10, 2))
    m = matrix(np.vstack([blob, [[100.0, 100.0]]]))
    result = dbscan_fit(m, eps=1.0, min_pts=4)
    assert (result.labels[:10] == 0).all()
    assert result.labels[10] == NOISE
    assert result.n_clusters == 1


def test_invalid_parameters():
    m = matrix([[0.0], [1.0]])
    with pytest.raises(ValueError):
        dbscan_fit(m, eps=-1.0)
    with pytest.raises(ValueError):
        dbscan_fit(m, eps=1.0, min_pts=0)
    with pytest.raises(ValueError):
        sweep_dbscan(m, min_pts=0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_eps_rejected(eps):
    m = matrix([[0.0], [1.0], [5.0]])
    with pytest.raises(ValueError):
        dbscan_fits(m, [1.0, eps], 1)
    with pytest.raises(ValueError):
        sweep_dbscan(m, eps_values=[eps], min_pts=1)


def test_matches_reference_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(10, 80))
        data = rng.uniform(0, 10, size=(n, 2))
        eps = float(rng.uniform(0.3, 3.0))
        min_pts = int(rng.integers(2, 7))
        got = dbscan_fit(matrix(data), eps=eps, min_pts=min_pts).labels
        want = reference_dbscan(data, eps, min_pts)
        assert got.tolist() == want.tolist(), f"trial {trial}"


def test_noise_monotone_in_eps():
    rng = np.random.default_rng(13)
    m = matrix(rng.uniform(0, 10, size=(100, 2)))
    noise_counts = []
    for eps in (0.3, 0.6, 1.0, 2.0, 4.0):
        labels = dbscan_fit(m, eps=eps, min_pts=4).labels
        noise_counts.append(int((labels == NOISE).sum()))
    assert noise_counts == sorted(noise_counts, reverse=True)


def test_partition_invariant_to_point_order():
    rng = np.random.default_rng(17)
    data = rng.uniform(0, 5, size=(60, 2))
    perm = rng.permutation(60)
    a = dbscan_fit(matrix(data), eps=0.8, min_pts=4).labels
    b = dbscan_fit(matrix(data[perm]), eps=0.8, min_pts=4).labels
    # same noise set and same clusters as sets of points
    noise_a = {tuple(data[i]) for i in range(60) if a[i] == NOISE}
    noise_b = {tuple(data[perm][i]) for i in range(60) if b[i] == NOISE}
    assert noise_a == noise_b
    clusters_a = {}
    clusters_b = {}
    for i in range(60):
        if a[i] != NOISE:
            clusters_a.setdefault(a[i], set()).add(tuple(data[i]))
        if b[i] != NOISE:
            clusters_b.setdefault(b[i], set()).add(tuple(data[perm][i]))
    assert sorted(map(frozenset, clusters_a.values()), key=sorted) == sorted(
        map(frozenset, clusters_b.values()), key=sorted
    )


def test_every_cluster_has_a_core_point():
    rng = np.random.default_rng(19)
    m = matrix(rng.uniform(0, 8, size=(120, 2)))
    eps, min_pts = 0.9, 4
    result = dbscan_fit(m, eps=eps, min_pts=min_pts)
    for cid in range(result.n_clusters):
        members = np.flatnonzero(result.labels == cid)
        has_core = any(len(eps_neighborhood(int(i), m, eps)) >= min_pts for i in members)
        assert has_core


def test_determinism():
    rng = np.random.default_rng(23)
    m = matrix(rng.uniform(0, 5, size=(70, 2)))
    a = dbscan_fit(m, eps=0.7, min_pts=3)
    b = dbscan_fit(m, eps=0.7, min_pts=3)
    assert (a.labels == b.labels).all()


def test_cluster_ids_contiguous():
    rng = np.random.default_rng(29)
    m = matrix(rng.uniform(0, 10, size=(150, 2)))
    result = dbscan_fit(m, eps=0.8, min_pts=3)
    ids = sorted(set(result.labels.tolist()) - {NOISE})
    assert ids == list(range(result.n_clusters))


def test_fits_check_parameters_before_distances(monkeypatch):
    def no_distances(*args):
        raise AssertionError("distances taken before the parameter checks")

    monkeypatch.setattr(dbscan_mod, "_distances", no_distances)
    m = matrix([[0.0], [1.0]])
    for eps_values, min_pts in (([1.0, 0.0], 5), ([2.0, -1.0], 5), ([1.0], 0)):
        with pytest.raises(ValueError):
            dbscan_fits(m, eps_values, min_pts)
    with pytest.raises(AssertionError):  # valid parameters do reach the patched helper
        dbscan_fits(m, [1.0], 1)


def test_fits_match_references_random_1_to_3d():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(2, 80))
        d = int(rng.integers(1, 4))
        data = rng.uniform(0, 10, size=(n, d))
        eps_values = sorted(float(e) for e in rng.uniform(0.2, 4.0, size=4))
        assert_fits_match_references(data, eps_values, int(rng.integers(1, 8)))


def test_fits_match_references_integer_grid_ties():
    # integer coordinates put many distances exactly at eps, where the
    # strict dist < eps test must leave the pair unconnected
    rng = np.random.default_rng(37)
    eps_values = [1.0, float(np.sqrt(2.0)), 2.0, float(np.sqrt(5.0)), 3.0]
    for _ in range(60):
        n = int(rng.integers(5, 70))
        d = int(rng.integers(1, 4))
        data = rng.integers(0, 6, size=(n, d)).astype(float)
        dist = np.sqrt(((data[:, None] - data[None]) ** 2).sum(axis=2))
        assert np.isin(dist, eps_values).any()
        assert_fits_match_references(data, eps_values, int(rng.integers(1, 7)))


def test_fits_match_references_duplicate_points():
    rng = np.random.default_rng(41)
    for _ in range(40):
        base = rng.uniform(0, 6, size=(int(rng.integers(2, 15)), 2))
        data = base[rng.integers(0, len(base), size=int(rng.integers(10, 60)))]
        assert_fits_match_references(data, [0.5, 1.0, 2.0], int(rng.integers(2, 8)))


def test_fits_min_pts_one_every_point_clustered():
    rng = np.random.default_rng(43)
    data = rng.uniform(0, 10, size=(60, 2))
    assert_fits_match_references(data, [0.3, 1.0, 3.0], 1)
    assert all((r.labels != NOISE).all() for r in dbscan_fits(matrix(data), [0.3, 1.0, 3.0], 1))


def test_fits_single_point():
    data = np.array([[2.0, 3.0]])
    for min_pts, want in ((1, [0]), (2, [NOISE])):
        assert_fits_match_references(data, [1.0], min_pts)
        assert dbscan_fits(matrix(data), [1.0], min_pts)[0].labels.tolist() == want


def test_fits_everything_noise():
    rng = np.random.default_rng(47)
    data = rng.uniform(0, 10, size=(50, 2))
    assert_fits_match_references(data, [1e-3, 0.05], 3)
    for result in dbscan_fits(matrix(data), [1e-3, 0.05], 3):
        assert (result.labels == NOISE).all() and result.n_clusters == 0


@pytest.mark.parametrize("scaling", ["none", "zscore"])
def test_fits_match_references_on_default_profile(scaling):
    episodes = segment_episodes(filter_meal_locations(generate_trace(default_profile())))
    m = scale_features(build_features(episodes), scaling)
    assert_fits_match_references(m.data, DEFAULT_EPS_VALUES, DEFAULT_MIN_PTS)


@pytest.mark.parametrize("scaling", ["none", "zscore"])
def test_fits_match_matrix_reference_on_two_year_profile(scaling):
    episodes = segment_episodes(filter_meal_locations(generate_trace(default_profile(days=730))))
    m = scale_features(build_features(episodes), scaling)
    assert len(m.data) == 2607
    results = dbscan_fits(m, DEFAULT_EPS_VALUES, DEFAULT_MIN_PTS)
    want = reference_matrix_fits(m.data, DEFAULT_EPS_VALUES, DEFAULT_MIN_PTS)
    for result, (labels, n_clusters) in zip(results, want, strict=True):
        assert np.array_equal(result.labels, labels), f"eps={result.eps}"
        assert result.n_clusters == n_clusters, f"eps={result.eps}"


def reference_mst_weights(data, min_pts):
    """Mutual-reachability matrix max(d_ij, cd_i, cd_j) and the edge
    weights of a minimum spanning tree of it, by dense Prim."""
    dist = _pairwise_distances(data)
    n = len(data)
    core_dist = np.sort(dist, axis=1)[:, min_pts - 1] if min_pts <= n else np.full(n, np.inf)
    reach = np.maximum(dist, np.maximum.outer(core_dist, core_dist))
    best = reach[0].copy()
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    weights = []
    for _ in range(n - 1):
        j = np.flatnonzero(outside)[best[outside].argmin()]
        weights.append(best[j])
        outside[j] = False
        np.minimum(best, reach[j], out=best)
    return reach, np.array(weights)


def test_spanning_tree_is_a_minimum_spanning_tree():
    # any exact MST gives the same components at every cut, so the labels
    # rest on the tree's weights being an MST's, not on which MST it is
    rng = np.random.default_rng(59)
    for case in range(200):
        n, d, min_pts = int(rng.integers(1, 61)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
        if case % 2:
            data = rng.integers(0, 6, size=(n, d)).astype(float)
        else:
            data = rng.uniform(-10, 10, size=(n, d))
        cols = np.ascontiguousarray(data.T)
        block = np.empty((2, min(dbscan_mod.BLOCK_ROWS, n), n))
        core_dist = dbscan_mod._core_distances(cols, min_pts, block)
        parent, weight = dbscan_mod._spanning_tree(cols, core_dist)
        reach, want = reference_mst_weights(data, min_pts)
        assert weight[0] == np.inf
        finite = np.isfinite(weight)
        assert np.sort(weight[finite]) == pytest.approx(np.sort(want[np.isfinite(want)]), rel=1e-12)
        assert weight[finite] == pytest.approx(reach[finite, parent[finite]], rel=1e-12)
        top = parent
        for _ in range(n):
            top = parent[top]
        assert (top == 0).all()


# Mostly exact distances between points of a 0..5 integer grid, so eps lands on ties.
_GRID_EPS = [0.5, 1.0, float(np.sqrt(2.0)), 2.0, float(np.sqrt(5.0)), 2.5, 3.0]


@st.composite
def _dbscan_inputs(draw):
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        coords = st.integers(0, 5).map(float)
        eps = st.sampled_from(_GRID_EPS)
    else:
        coords = st.floats(-10, 10, allow_subnormal=False)
        eps = st.floats(0.01, 8.0)
    data = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n)))
    eps_values = draw(st.lists(eps, min_size=1, max_size=5))
    eps_values += draw(st.lists(st.sampled_from(eps_values), max_size=3))  # repeats
    return data, draw(st.permutations(eps_values)), draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dbscan_inputs())
def test_fits_match_references_property(inputs):
    data, eps_values, min_pts = inputs
    assert_fits_match_references(data, eps_values, min_pts)  # also checks the caller's eps order
    results = dbscan_fits(matrix(data), eps_values, min_pts)
    for i, j in itertools.combinations(range(len(eps_values)), 2):
        if eps_values[i] == eps_values[j]:
            assert np.array_equal(results[i].labels, results[j].labels)
            assert not np.shares_memory(results[i].labels, results[j].labels)


def test_fits_memory_stays_linear():
    # the (N, N) matrix sweep peaked near 570 MiB on these points
    data = np.random.default_rng(53).uniform(0, 10, size=(5000, 2))
    tracemalloc.start()
    try:
        dbscan_fits(matrix(data), [0.05, 0.2, 0.5], DEFAULT_MIN_PTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
