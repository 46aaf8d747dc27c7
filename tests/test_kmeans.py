import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealclust.episodes import segment_episodes
from mealclust.events import filter_meal_locations
from mealclust.features import (
    MODE_DURATION_AND_START_HOUR,
    MODE_DURATION_ONLY,
    FeatureMatrix,
    build_features,
    scale_features,
)
from mealclust.kmeans import (
    MAX_ITER,
    TOL,
    KMeansModel,
    _centred,
    assign,
    euclidean_distance,
    kmeans_fit,
)
from mealclust.synth import default_profile, generate_trace


def matrix(data):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data=data, feature_names=[f"f{i}" for i in range(data.shape[1])])


def reference_sq_distances(data, centroids):
    """Squared Euclidean distances, shape (k, N)."""
    diff = _centred(data.T, centroids)
    return np.einsum("knd,knd->kn", diff, diff)


def reference_seed_centroids(data, k, rng):
    """Seeding that recomputes the distances to every chosen centroid."""
    n = data.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = reference_sq_distances(data, data[chosen]).min(axis=0)
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
    return data[chosen].copy()


def reference_kmeans_fit(data, k, seed):
    """Lloyd iterations with one boolean mask and one mean per cluster: the
    loop form that kmeans_fit must reproduce bit for bit."""
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centroids = reference_seed_centroids(data, k, rng)
    inertia_history = []
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        sq = reference_sq_distances(data, centroids)
        labels = np.argmin(sq, axis=0)
        inertia = float(sq[labels, np.arange(n)].sum())
        inertia_history.append(inertia)

        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centroids[j] = data[labels == j].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            own_dist = sq[labels, np.arange(n)]
            order = np.argsort(-own_dist, kind="stable")
            for slot, j in enumerate(empty):
                new_centroids[j] = data[order[slot]]

        displacement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if displacement < TOL:
            break

    sq = reference_sq_distances(data, centroids)
    labels = np.argmin(sq, axis=0)
    inertia = float(sq[labels, np.arange(n)].sum())
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


def assert_same_fit(got, want):
    """Exact equality, no tolerance: every bit of every output."""
    assert np.array_equal(got.centroids, want.centroids)
    assert np.array_equal(got.labels, want.labels)
    assert got.inertia == want.inertia
    assert got.inertia_history == want.inertia_history
    assert got.iterations_run == want.iterations_run


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fit_matches_reference(d):
    rng = np.random.default_rng(60 + d)
    centres = rng.uniform(-10, 10, size=(5, d))
    data = centres[rng.integers(0, 5, size=150)] + rng.normal(size=(150, d)) * rng.uniform(0.5, 2, size=d)
    for k in range(1, 11):
        for seed in (k, k + 100):
            assert_same_fit(kmeans_fit(matrix(data), k=k, seed=seed), reference_kmeans_fit(data, k, seed))


@pytest.mark.parametrize("d", [1, 2])
def test_fit_matches_reference_with_empty_cluster_repair(d):
    # three distinct points for five clusters: seeding must pick coincident
    # centroids, so the first assignment leaves clusters empty
    points = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]])[:, :d]
    data = points[[0] * 8 + [1] * 7 + [2] * 5]
    for seed in range(5):
        centroids = reference_seed_centroids(data, 5, np.random.default_rng(seed))
        counts = np.bincount(np.argmin(reference_sq_distances(data, centroids), axis=0), minlength=5)
        assert (counts == 0).any()
        assert_same_fit(kmeans_fit(matrix(data), k=5, seed=seed), reference_kmeans_fit(data, 5, seed))


@pytest.mark.parametrize(
    "mode,scaling",
    [
        pytest.param(MODE_DURATION_AND_START_HOUR, "none", id="duration_and_start_hour-none"),
        pytest.param(MODE_DURATION_AND_START_HOUR, "zscore", id="duration_and_start_hour-zscore"),
        pytest.param(MODE_DURATION_ONLY, "none", id="duration_only-none"),
    ],
)
def test_fit_matches_reference_on_default_profile(mode, scaling):
    episodes = segment_episodes(filter_meal_locations(generate_trace(default_profile(days=365, seed=0))))
    m = scale_features(build_features(episodes, mode=mode), scaling)
    for k in range(2, 11):
        assert_same_fit(kmeans_fit(m, k=k, seed=3), reference_kmeans_fit(m.data, k, 3))


@st.composite
def _kmeans_inputs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    # a coarse grid next to free floats, so ties and coincident points occur
    coords = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_subnormal=False))
    data = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n)))
    return data, draw(st.integers(1, min(n, 8))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_kmeans_inputs())
def test_fit_matches_reference_property(inputs):
    data, k, seed = inputs
    assert_same_fit(kmeans_fit(matrix(data), k=k, seed=seed), reference_kmeans_fit(data, k, seed))


def test_distance_3_4_5():
    assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)


def test_distance_identity():
    assert euclidean_distance([1.5, -2.0], [1.5, -2.0]) == 0.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        euclidean_distance([1, 2], [1, 2, 3])


def test_distance_matches_sum_of_squares_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5
        assert abs(euclidean_distance(a, b) - expected) < 1e-12


def test_assign_tie_breaks_to_lowest_index():
    m = matrix([[0.0, 0.0]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert assign(m, centroids).tolist() == [0]


def test_assign_coincident_point():
    m = matrix([[5.0, 5.0]])
    centroids = np.array([[0.0, 0.0], [9.0, 9.0], [5.0, 5.0]])
    assert assign(m, centroids).tolist() == [2]


def test_assign_dimension_mismatch():
    with pytest.raises(ValueError):
        assign(matrix([[0.0, 0.0]]), np.array([[1.0, 2.0, 3.0]]))


def test_assign_matches_bruteforce_argmin():
    rng = np.random.default_rng(7)
    m = matrix(rng.normal(size=(80, 3)))
    centroids = rng.normal(size=(5, 3))
    labels = assign(m, centroids)
    for i, point in enumerate(m.data):
        dists = [euclidean_distance(point, c) for c in centroids]
        assert labels[i] == dists.index(min(dists))


def test_k1_closed_form():
    rng = np.random.default_rng(2)
    m = matrix(rng.normal(5, 2, size=(50, 2)))
    model = kmeans_fit(m, k=1, seed=0)
    assert np.abs(model.centroids[0] - m.data.mean(axis=0)).max() < 1e-9
    assert model.inertia == pytest.approx(((m.data - m.data.mean(axis=0)) ** 2).sum())


def test_two_separated_pairs():
    m = matrix([[0, 0], [0, 1], [100, 100], [100, 101]])
    model = kmeans_fit(m, k=2, seed=3)
    got = sorted(model.centroids.tolist())
    assert got == [[0.0, 0.5], [100.0, 100.5]]


def test_planted_gaussians_recovered_over_seeds():
    rng = np.random.default_rng(42)
    centers = np.array([[0.0, 0.0], [25.0, 0.0], [0.0, 25.0], [25.0, 25.0]])
    data = np.vstack([rng.normal(c, 1.0, size=(100, 2)) for c in centers])
    m = matrix(data)
    for seed in range(50):
        model = kmeans_fit(m, k=4, seed=seed)
        matched = set()
        for c in model.centroids:
            dists = np.sqrt(((centers - c) ** 2).sum(axis=1))
            j = int(np.argmin(dists))
            assert dists[j] < 0.5
            matched.add(j)
        assert matched == {0, 1, 2, 3}


def test_k_out_of_range():
    m = matrix([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        kmeans_fit(m, k=3)
    with pytest.raises(ValueError):
        kmeans_fit(m, k=0)


def test_inertia_monotone_descent():
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = matrix(rng.normal(size=(60, 2)))
        model = kmeans_fit(m, k=4, seed=trial)
        hist = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_converged_centroids_are_cluster_means():
    rng = np.random.default_rng(8)
    m = matrix(rng.normal(size=(120, 2)))
    model = kmeans_fit(m, k=3, seed=1)
    for j in range(3):
        members = m.data[model.labels == j]
        assert np.abs(model.centroids[j] - members.mean(axis=0)).max() < 1e-6


def test_k_equals_n_distinct_points_zero_inertia():
    rng = np.random.default_rng(10)
    m = matrix(rng.uniform(0, 10, size=(15, 2)))
    model = kmeans_fit(m, k=15, seed=0)
    assert model.inertia == 0.0


def test_determinism():
    rng = np.random.default_rng(12)
    m = matrix(rng.normal(size=(70, 2)))
    a = kmeans_fit(m, k=5, seed=99)
    b = kmeans_fit(m, k=5, seed=99)
    assert (a.labels == b.labels).all()
    assert (a.centroids == b.centroids).all()


def test_relabeling_leaves_inertia_unchanged():
    rng = np.random.default_rng(13)
    m = matrix(rng.normal(size=(40, 2)))
    model = kmeans_fit(m, k=3, seed=2)
    perm = [2, 0, 1]
    permuted_centroids = model.centroids[perm]
    permuted_labels = assign(m, permuted_centroids)
    inertia = sum(
        euclidean_distance(m.data[i], permuted_centroids[permuted_labels[i]]) ** 2
        for i in range(m.n)
    )
    assert inertia == pytest.approx(model.inertia)
