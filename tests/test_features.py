from datetime import datetime, timedelta

import numpy as np
import pytest

from mealclust.episodes import ActivityEpisode
from mealclust.features import (
    MODE_DURATION_AND_START_HOUR,
    MODE_DURATION_ONLY,
    SCALING_ZSCORE,
    FeatureMatrix,
    build_features,
    scale_features,
)
from mealclust.kmeans import kmeans_fit


def episode(duration_min, start):
    return ActivityEpisode(
        household_id="h1",
        start=start,
        end=start + timedelta(minutes=duration_min),
        duration_min=duration_min,
        start_hour=start.hour + start.minute / 60.0,
        event_count=5,
    )


def test_duration_and_start_hour():
    m = build_features([episode(20.0, datetime(2024, 3, 1, 12, 30))])
    assert m.data.tolist() == [[20.0, 12.5]]
    assert m.feature_names == ["duration_min", "start_hour"]


def test_duration_only():
    m = build_features([episode(20.0, datetime(2024, 3, 1, 12, 30))], mode=MODE_DURATION_ONLY)
    assert m.data.tolist() == [[20.0]]


def test_empty_episodes_rejected():
    with pytest.raises(ValueError):
        build_features([])


def test_row_correspondence_and_bounds():
    rng = np.random.default_rng(0)
    episodes = [
        episode(float(rng.uniform(5, 60)), datetime(2024, 3, 1 + i % 28, int(rng.integers(0, 24)), 0))
        for i in range(90)
    ]
    m = build_features(episodes)
    assert m.data.shape == (90, 2)
    assert m.data[:, 0].min() >= 5 and m.data[:, 0].max() <= 60
    assert m.data[:, 1].min() >= 0 and m.data[:, 1].max() < 24
    assert m.data[7, 0] == episodes[7].duration_min


def test_zscore_two_points():
    m = FeatureMatrix(data=np.array([[2.0], [4.0]]), feature_names=["duration_min"])
    scaled = scale_features(m, SCALING_ZSCORE)
    assert scaled.data.flatten().tolist() == [-1.0, 1.0]


def test_scale_none_is_identity():
    m = FeatureMatrix(data=np.array([[2.0], [4.0]]), feature_names=["duration_min"])
    out = scale_features(m, "none")
    assert (out.data == m.data).all()
    assert out.scaling == "none"
    # on a z-scored matrix, the identity keeps the scaling and its moments
    z = scale_features(m, SCALING_ZSCORE)
    out = scale_features(z, "none")
    assert out.data is not z.data and (out.data == z.data).all()
    assert out.scaling == SCALING_ZSCORE and (out.means == z.means).all() and (out.stds == z.stds).all()
    assert (out.unscaled() == z.unscaled()).all()


def test_zscore_requires_two_rows():
    m = FeatureMatrix(data=np.array([[2.0]]), feature_names=["duration_min"])
    with pytest.raises(ValueError):
        scale_features(m, SCALING_ZSCORE)


def test_zscore_moments():
    rng = np.random.default_rng(3)
    m = FeatureMatrix(data=rng.normal(50, 7, size=(100, 2)), feature_names=["a", "b"])
    scaled = scale_features(m, SCALING_ZSCORE)
    # recompute moments independently of the scaler
    for col in range(2):
        vals = scaled.data[:, col]
        assert abs(sum(vals) / len(vals)) < 1e-9
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(var**0.5 - 1.0) < 1e-9


def test_constant_column_maps_to_zeros():
    m = FeatureMatrix(data=np.array([[3.0, 1.0], [3.0, 2.0]]), feature_names=["a", "b"])
    scaled = scale_features(m, SCALING_ZSCORE)
    assert (scaled.data[:, 0] == 0).all()
    assert scaled.stds[0] == 1.0


def test_inverse_mapping_recovers_data():
    rng = np.random.default_rng(9)
    data = rng.uniform(0, 100, size=(40, 2))
    m = FeatureMatrix(data=data.copy(), feature_names=["a", "b"])
    scaled = scale_features(m, SCALING_ZSCORE)
    assert np.abs(scaled.unscaled() - data).max() < 1e-9


def test_nan_rejected():
    with pytest.raises(ValueError):
        FeatureMatrix(data=np.array([[np.nan, 1.0]]), feature_names=["a", "b"])


def test_kmeans_invariant_to_affine_shift_after_zscore():
    rng = np.random.default_rng(21)
    data = rng.normal(0, 1, size=(60, 2)) + np.repeat([[0, 0], [8, 8], [0, 8]], 20, axis=0)
    raw = FeatureMatrix(data=data, feature_names=["a", "b"])
    shifted = FeatureMatrix(data=data * 3.7 + 11.0, feature_names=["a", "b"])
    l1 = kmeans_fit(scale_features(raw, SCALING_ZSCORE), k=3, seed=5).labels
    l2 = kmeans_fit(scale_features(shifted, SCALING_ZSCORE), k=3, seed=5).labels
    assert (l1 == l2).all()
