from collections import deque

import numpy as np
import pytest

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
    def no_distances(data):
        raise AssertionError("distance matrix built before the parameter checks")

    monkeypatch.setattr(dbscan_mod, "_pairwise_distances", no_distances)
    m = matrix([[0.0], [1.0]])
    for eps_values, min_pts in (([1.0, 0.0], 5), ([2.0, -1.0], 5), ([1.0], 0)):
        with pytest.raises(ValueError):
            dbscan_fits(m, eps_values, min_pts)


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
