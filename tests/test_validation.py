from dataclasses import replace

import numpy as np
import pytest

from mealclust.dbscan import dbscan_fit
from mealclust.events import records_from_csv, records_to_csv
from mealclust.features import FeatureMatrix
from mealclust.gmm import gmm_fit
from mealclust.kmeans import kmeans_fit
from mealclust.validation import (
    SweepEntry,
    SweepError,
    SweepReport,
    UndefinedDbiError,
    davies_bouldin,
    sweep_dbscan,
    sweep_gmm,
    sweep_kmeans,
)
from test_cli import count_fits


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
    assert davies_bouldin(m, labels) == pytest.approx(0.2)
    with pytest.raises(UndefinedDbiError):
        davies_bouldin(m, np.array([0, 0, -1, -1, -1]))


def test_noise_points_are_left_out_of_every_score():
    # the -1 points sit far out; scored as a cluster they would move the index
    rng = np.random.default_rng(8)
    data = np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(9, 1, (20, 2)), rng.uniform(-40, 40, (6, 2))])
    labels = np.repeat([0, 1, -1], [20, 20, 6])
    assert davies_bouldin(matrix(data), labels) == davies_bouldin(matrix(data[:40]), labels[:40])
    assert davies_bouldin(matrix(data), labels) != davies_bouldin(matrix(data), np.where(labels < 0, 2, labels))


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


def test_gmm_sweep_keeps_its_best_fit():
    m = four_blobs()
    for seed in (0, 1):
        report = sweep_gmm(m, seed=seed)
        fresh = gmm_fit(m, g=int(report.best.param), seed=seed)
        assert np.array_equal(report.best_model.labels, fresh.labels)
        for name in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(report.best_model.params, name), getattr(fresh.params, name))


def test_kmeans_and_dbscan_sweeps_keep_their_best_fit():
    m = four_blobs()
    report = sweep_kmeans(m, seed=2)
    fresh = kmeans_fit(m, k=int(report.best.param), seed=2)
    assert report.best_model.k == report.best.param
    assert np.array_equal(report.best_model.labels, fresh.labels)
    assert np.array_equal(report.best_model.centroids, fresh.centroids)

    rng = np.random.default_rng(9)
    m = matrix(np.vstack([rng.normal([0, 0], 0.3, size=(40, 2)), rng.normal([50, 50], 0.3, size=(40, 2))]))
    report = sweep_dbscan(m, eps_values=[0.01, 1.0, 2.0, 200.0], min_pts=4)
    assert report.best_model.eps == report.best.param
    assert np.array_equal(report.best_model.labels, dbscan_fit(m, eps=report.best.param, min_pts=4).labels)


def test_sweeps_are_deterministic_with_and_without_shared_fits():
    for seed in (0, 7):
        m = four_blobs(seed=3, spread=4.0)
        km, again = sweep_kmeans(m, seed=seed), sweep_kmeans(four_blobs(seed=3, spread=4.0), seed=seed)
        assert again == km
        for k in range(2, 11):
            a, b = m.kmeans_fits[k, seed], kmeans_fit(m.data, k=k, seed=seed)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.centroids, b.centroids)
        shared = sweep_gmm(m, seed=seed)  # starts from the K-Means sweep's fits
        alone = sweep_gmm(four_blobs(seed=3, spread=4.0), seed=seed)
        assert sweep_gmm(four_blobs(seed=3, spread=4.0), seed=seed) == alone
        assert shared == alone
        a, b = shared.best_model, alone.best_model
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.params.means, b.params.means)
        assert np.array_equal(a.params.covariances, b.params.covariances)
        assert a.log_likelihood_trace == b.log_likelihood_trace


def test_gmm_sweep_shares_only_the_fits_it_sweeps(monkeypatch):
    # K-Means fits for k = 2..4 cover part of g = 3..6; the rest are fitted
    m = four_blobs(seed=5)
    sweep_kmeans(m, k_range=range(2, 5), seed=1)
    fitted = count_fits(monkeypatch, kmeans_fit, "k")
    shared = sweep_gmm(m, g_range=range(3, 7), seed=1)
    assert fitted == [5, 6]
    assert shared == sweep_gmm(four_blobs(seed=5), g_range=range(3, 7), seed=1)
    assert [e.param for e in shared.entries] == [3.0, 4.0, 5.0, 6.0]


def test_gmm_sweep_ignores_fits_of_another_seed():
    m = four_blobs(seed=5)
    sweep_kmeans(m, k_range=range(2, 5), seed=1)
    assert sweep_gmm(m, g_range=range(2, 5), seed=2) == sweep_gmm(four_blobs(seed=5), g_range=range(2, 5), seed=2)


def test_kmeans_then_gmm_sweep_fits_each_k_once(monkeypatch):
    # the call pattern of acceptance criterion 6: both sweeps on one matrix
    fitted = count_fits(monkeypatch, kmeans_fit, "k")
    m = four_blobs(seed=8)
    km, gm = sweep_kmeans(m, seed=3), sweep_gmm(m, seed=3)
    assert fitted == list(range(2, 11))
    assert sweep_kmeans(m.data, seed=3) == km and sweep_gmm(m.data, seed=3) == gm  # an array keeps no fits
    assert fitted == list(range(2, 11)) * 3
    # the fits are not part of the matrix's value, and a copy starts with none
    fresh = replace(m)
    assert fresh.kmeans_fits == {} and len(m.kmeans_fits) == 9
    assert fresh == m and repr(fresh) == repr(m)


def test_huge_range_fails_before_it_is_listed():
    with pytest.raises(ValueError, match="must lie within"):
        sweep_kmeans(four_blobs(), k_range=range(2, 2**62))
    with pytest.raises(ValueError, match="must lie within"):
        sweep_gmm(four_blobs(), g_range=range(2, 2**62))


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
            dbi = davies_bouldin(m, result.labels)
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
    assert clone.best_model is None  # fitted models are not serialised


def test_plot_csv_format():
    rng = np.random.default_rng(15)
    data = np.vstack([
        rng.normal([0, 0], 0.3, size=(30, 2)),
        rng.normal([50, 50], 0.3, size=(30, 2)),
    ])
    report = sweep_dbscan(matrix(data), eps_values=[0.01, 1.0], min_pts=4)
    text = records_to_csv(SweepEntry, report.entries)
    lines = text.splitlines()
    assert lines[0] == "param,dbi,n_clusters,n_noise"
    assert lines[1].split(",")[1] == ""  # undefined dbi -> empty field
    assert records_from_csv(SweepEntry, text) == report.entries  # and back to None
