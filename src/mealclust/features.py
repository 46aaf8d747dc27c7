"""Numeric feature extraction from activity episodes.

Default feature space is 2-D (duration in minutes, start hour of day),
unscaled; z-score standardization is opt-in because duration and hour
carry incommensurate units. Each feature is a column of the episodes'
`EpisodeTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from mealclust.episodes import ActivityEpisode, EpisodeTable

MODE_DURATION_ONLY = "duration"
MODE_DURATION_AND_START_HOUR = "duration+hour"

SCALING_NONE = "none"
SCALING_ZSCORE = "zscore"

_MODE_COLUMNS = {MODE_DURATION_ONLY: ["duration_min"], MODE_DURATION_AND_START_HOUR: ["duration_min", "start_hour"]}


def check_options(mode: str = MODE_DURATION_AND_START_HOUR, scaling: str = SCALING_NONE) -> None:
    """Raise ValueError unless `mode` is a feature mode and `scaling` a scaling method."""
    if mode not in _MODE_COLUMNS:
        raise ValueError(f"unknown feature mode: {mode!r}")
    if scaling not in (SCALING_NONE, SCALING_ZSCORE):
        raise ValueError(f"unknown scaling method: {scaling!r}")


@dataclass
class FeatureMatrix:
    """Clustering features, one row per episode. The rows must not change
    after construction: the matrix keeps their K-Means fits for its sweeps."""

    data: np.ndarray  # (N, D) float64, finite
    feature_names: list[str]
    scaling: str = SCALING_NONE
    # populated when scaling == "zscore"; per-column raw mean / stddev
    means: np.ndarray | None = field(default=None)
    stds: np.ndarray | None = field(default=None)
    # KMeansModel by (k, seed), filled by the validation sweeps
    kmeans_fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("feature data must be 2-D (N rows, D columns)")
        if not np.isfinite(self.data).all():
            raise ValueError("feature data contains NaN or infinite entries")
        if len(self.feature_names) != self.data.shape[1]:
            raise ValueError("feature_names length must match column count")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def unscaled(self) -> np.ndarray:
        """Data mapped back to raw units via the stored scaling metadata."""
        if self.scaling == SCALING_NONE:
            return self.data.copy()
        return self.data * self.stds + self.means


def build_features(
    episodes: Sequence[ActivityEpisode],
    mode: str = MODE_DURATION_AND_START_HOUR,
) -> FeatureMatrix:
    """Build the clustering feature matrix from the columns of the episodes'
    `EpisodeTable`; row i maps to episode i."""
    table = EpisodeTable.from_records(episodes)
    if not len(table):
        raise ValueError("episode list must be non-empty")
    check_options(mode=mode)
    names = list(_MODE_COLUMNS[mode])
    return FeatureMatrix(data=np.column_stack([getattr(table, name) for name in names]), feature_names=names)


def scale_features(m: FeatureMatrix, method: str = SCALING_NONE) -> FeatureMatrix:
    """Return a new matrix scaled by `method`; "none" returns a copy of `m`
    that keeps its scaling, means and stds.

    Z-scoring uses the population stddev (divisor N); constant columns
    map to all-zeros with a recorded stddev of 1 so the inverse mapping
    stays exact.
    """
    check_options(scaling=method)
    if method == SCALING_NONE:
        return replace(m, data=m.data.copy(), feature_names=list(m.feature_names))
    if m.scaling != SCALING_NONE:
        raise ValueError("matrix is already scaled")
    if m.n < 2:
        raise ValueError("zscore scaling requires at least 2 rows")
    means = m.data.mean(axis=0)
    stds = m.data.std(axis=0)  # population (divisor N)
    stds = np.where(stds == 0.0, 1.0, stds)
    return FeatureMatrix(
        data=(m.data - means) / stds,
        feature_names=list(m.feature_names),
        scaling=SCALING_ZSCORE,
        means=means,
        stds=stds,
    )
