import numpy as np
import pytest

from mealclust.dbscan import dbscan_fit
from mealclust.features import FeatureMatrix
from mealclust.validation import (
    SweepError,
    SweepReport,
    UndefinedDbiError,
    davies_bouldin,
    sweep_dbscan,
    sweep_gmm,
    sweep_kmeans,
)


def matrix(data):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data=data, feature_names=[f"f{i}" for i in range(data.shape[1])])


def dbi_oracle(data, labels):
    """Direct reimplementation of the Davies-Bouldin formula."""
    ids = sorted(set(labels))
    centroids = {}
    scatters = {}
    for c in ids:
        members = np.array([data[i] for i in range(len(data)) if labels[i] == c])
        centroids[c] = members.mean(axis=0)
        scatters[c] = np.mean([np.sqrt(((p - centroids[c]) ** 2).sum()) for p in members])
    total = 0.0
    for ci in ids:
        worst = -np.inf
        for cj in ids:
            if ci == cj:
                continue
            d = np.sqrt(((centroids[ci] - centroids[cj]) ** 2).sum())
            worst = max(worst, (scatters[ci] + scatters[cj]) / d)
        total += worst
    return total / len(ids)


def four_blobs(seed=0, n_per=60, spread=1.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [25.0, 0.0], [0.0, 25.0], [25.0, 25.0]])
    return matrix(np.vstack([rng.normal(c, spread, size=(n_per, 2)) for c in centers]))


def test_two_singletons_zero_dbi():
    m = matrix([[0.0, 0.0], [5.0, 5.0]])
    assert davies_bouldin(m, np.array([0, 1])) == 0.0


def test_hand_computed_fixture():
    m = matrix([[0, 0], [0, 2], [10, 0], [10, 2]])
    labels = np.array([0, 0, 1, 1])
    assert davies_bouldin(m, labels) == pytest.approx(0.2, abs=1e-12)


def test_matches_oracle_on_random_labelings():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(2, 6))
        data = rng.normal(size=(n, 2))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        assert davies_bouldin(matrix(data), labels) == pytest.approx(
            dbi_oracle(data, labels.tolist()), abs=1e-9
        )


def test_fewer_than_two_clusters_undefined():
    m = matrix([[0.0], [1.0], [2.0]])
    with pytest.raises(UndefinedDbiError):
        davies_bouldin(m, np.array([0, 0, 0]))


def test_noise_exclusion():
    m = matrix([[0, 0], [0, 2], [10, 0], [10, 2], [500, 500]])
    labels = np.array([0, 0, 1, 1, -1])
    assert davies_bouldin(m, labels, exclude_noise=True) == pytest.approx(0.2)
    with pytest.raises(UndefinedDbiError):
        davies_bouldin(m, np.array([0, 0, -1, -1, -1]), exclude_noise=True)


def test_coincident_centroids_undefined():
    m = matrix([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
    labels = np.array([0, 0, 1, 1])  # both centroids at (1, 0)
    with pytest.raises(UndefinedDbiError):
        davies_bouldin(m, labels)


def test_relabeling_and_translation_invariance():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(40, 2))
    labels = rng.integers(0, 3, size=40)
    labels[:3] = [0, 1, 2]
    base = davies_bouldin(matrix(data), labels)
    relabeled = np.array([{0: 2, 1: 0, 2: 1}[int(l)] for l in labels])
    assert davies_bouldin(matrix(data), relabeled) == pytest.approx(base)
    assert davies_bouldin(matrix(data + [100.0, -50.0]), labels) == pytest.approx(base)


def test_scale_invariance():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(30, 2))
    labels = np.concatenate([[0, 1], rng.integers(0, 2, size=28)])
    base = davies_bouldin(matrix(data), labels)
    assert davies_bouldin(matrix(data * 7.3), labels) == pytest.approx(base)


def test_sweep_kmeans_planted_four():
    hits = 0
    for seed in range(50):
        m = four_blobs(seed=seed)
        report = sweep_kmeans(m, seed=seed)
        if report.best.param == 4.0:
            hits += 1
    assert hits >= 48  # >= 95% of 50 seeds


def test_sweep_kmeans_singleton_range():
    m = four_blobs()
    report = sweep_kmeans(m, k_range=range(2, 3), seed=0)
    assert len(report.entries) == 1
    assert report.best is report.entries[0]


def test_sweep_kmeans_structure():
    m = four_blobs()
    report = sweep_kmeans(m, seed=1)
    assert len(report.entries) == 9
    for entry, k in zip(report.entries, range(2, 11)):
        assert entry.param == float(k)
        assert entry.n_clusters == k


def test_sweep_kmeans_range_validation():
    m = four_blobs(n_per=3)
    with pytest.raises(ValueError):
        sweep_kmeans(m, k_range=range(2, 2))
    with pytest.raises(ValueError):
        sweep_kmeans(m, k_range=range(1, 5))
    with pytest.raises(ValueError):
        sweep_kmeans(matrix(np.eye(4)), k_range=range(2, 11))


def test_sweep_gmm_planted_four():
    hits = 0
    for seed in range(50):
        m = four_blobs(seed=seed)
        report = sweep_gmm(m, seed=seed)
        if report.best.param == 4.0:
            hits += 1
    assert hits >= 45  # >= 90% of 50 seeds


def test_sweep_gmm_structure():
    m = four_blobs()
    report = sweep_gmm(m, g_range=range(2, 5), seed=0)
    assert len(report.entries) == 3
    for entry in report.entries:
        if entry.dbi is not None:
            assert entry.dbi >= 0
            assert entry.n_clusters >= 2


def test_sweep_dbscan_two_blobs():
    rng = np.random.default_rng(9)
    data = np.vstack([
        rng.normal([0, 0], 0.3, size=(40, 2)),
        rng.normal([50, 50], 0.3, size=(40, 2)),
    ])
    m = matrix(data)
    report = sweep_dbscan(m, eps_values=[0.01, 1.0, 2.0, 200.0], min_pts=4)
    # tiny eps: everything noise -> undefined; huge eps: one cluster -> undefined
    assert report.entries[0].dbi is None
    assert report.entries[-1].dbi is None
    for entry in report.entries:
        # the shared-distance sweep gives exactly the per-eps fit
        result = dbscan_fit(m, eps=entry.param, min_pts=4)
        assert entry.n_clusters == result.n_clusters
        assert entry.n_noise == int((result.labels == -1).sum())
        try:
            dbi = davies_bouldin(m, result.labels, exclude_noise=True)
        except UndefinedDbiError:
            dbi = None
        assert entry.dbi == dbi
    defined = [e for e in report.entries if e.dbi is not None]
    assert defined, "mid-range eps must produce a defined DBI"
    for entry in defined:
        # verify against the oracle at this eps
        labels = dbscan_fit(m, eps=entry.param, min_pts=4).labels
        keep = labels != -1
        assert entry.dbi == pytest.approx(dbi_oracle(data[keep], labels[keep].tolist()), abs=1e-9)
        assert entry.dbi < 0.1  # tight, far-apart blobs


def test_sweep_dbscan_single_blob_errors():
    rng = np.random.default_rng(10)
    m = matrix(rng.normal(0, 0.5, size=(50, 2)))
    with pytest.raises(SweepError):
        sweep_dbscan(m, eps_values=[0.5, 1.0, 5.0], min_pts=4)


def test_sweep_dbscan_keeps_undefined_entries():
    rng = np.random.default_rng(12)
    data = np.vstack([
        rng.normal([0, 0], 0.3, size=(30, 2)),
        rng.normal([50, 50], 0.3, size=(30, 2)),
    ])
    report = sweep_dbscan(matrix(data), eps_values=[0.01, 1.0, 500.0], min_pts=4)
    assert len(report.entries) == 3


def test_best_selection_minimum_and_tiebreak():
    m = four_blobs()
    report = sweep_kmeans(m, seed=0)
    defined = [e for e in report.entries if e.dbi is not None]
    assert all(report.best.dbi <= e.dbi for e in defined)
    ties = [e for e in defined if e.dbi == report.best.dbi]
    assert report.best.param == min(t.param for t in ties)


def test_report_round_trip():
    m = four_blobs()
    report = sweep_kmeans(m, seed=0, household_id="h9")
    clone = SweepReport.from_dict(report.to_dict())
    assert clone == report


def test_plot_csv_format():
    rng = np.random.default_rng(15)
    data = np.vstack([
        rng.normal([0, 0], 0.3, size=(30, 2)),
        rng.normal([50, 50], 0.3, size=(30, 2)),
    ])
    report = sweep_dbscan(matrix(data), eps_values=[0.01, 1.0], min_pts=4)
    lines = report.plot_csv().splitlines()
    assert lines[0] == "param,dbi,n_clusters,n_noise"
    assert lines[1].split(",")[1] == ""  # undefined dbi -> empty field
