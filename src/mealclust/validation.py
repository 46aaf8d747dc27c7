"""Davies-Bouldin validation and per-algorithm parameter sweeps.

The Davies-Bouldin index (lower is better) scores a hard partition by
the mean, over clusters, of the worst-case ratio of summed scatters to
centroid distance. Sweeps fit one model per parameter value and select
the minimum-DBI entry, breaking ties toward the smallest parameter.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from mealclust.features import FeatureMatrix
from mealclust.kmeans import kmeans_fit, _as_array
from mealclust.gmm import gmm_fit
from mealclust.dbscan import dbscan_fits, NOISE, DEFAULT_MIN_PTS

DEFAULT_K_RANGE = range(2, 11)
DEFAULT_G_RANGE = range(2, 11)
DEFAULT_EPS_VALUES = [float(e) for e in range(1, 11)]

PLOT_CSV_COLUMNS = ("param", "dbi", "n_clusters", "n_noise")


class UndefinedDbiError(ValueError):
    """DBI is undefined for this labeling (fewer than 2 usable clusters,
    or coincident centroids of distinct clusters)."""


class SweepError(RuntimeError):
    """No entry in the sweep produced a defined DBI."""


@dataclass
class SweepEntry:
    param: float
    dbi: float | None  # None marks an undefined entry
    n_clusters: int
    n_noise: int = 0


@dataclass
class SweepReport:
    household_id: str
    algorithm: str  # kmeans | gmm | dbscan
    entries: list[SweepEntry]
    best: SweepEntry
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "household_id": self.household_id,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "entries": [
                {"param": e.param, "dbi": e.dbi, "n_clusters": e.n_clusters, "n_noise": e.n_noise}
                for e in self.entries
            ],
            "best": {
                "param": self.best.param,
                "dbi": self.best.dbi,
                "n_clusters": self.best.n_clusters,
                "n_noise": self.best.n_noise,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        entries = [SweepEntry(**e) for e in d["entries"]]
        return cls(
            household_id=d["household_id"],
            algorithm=d["algorithm"],
            entries=entries,
            best=SweepEntry(**d["best"]),
            seed=d["seed"],
        )

    def plot_csv(self) -> str:
        """Plot-data CSV; undefined DBI renders as an empty field."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(PLOT_CSV_COLUMNS)
        for e in self.entries:
            writer.writerow([e.param, "" if e.dbi is None else repr(e.dbi), e.n_clusters, e.n_noise])
        return out.getvalue()


def davies_bouldin(m: FeatureMatrix | np.ndarray, labels: np.ndarray, exclude_noise: bool = False) -> float:
    """Davies-Bouldin index of a hard partition.

    Scatter is the mean Euclidean distance of a cluster's members to its
    centroid. Raises UndefinedDbiError when fewer than 2 clusters remain
    (after optional noise exclusion) or two cluster centroids coincide.
    """
    data = _as_array(m)
    labels = np.asarray(labels)
    if len(labels) != data.shape[0]:
        raise ValueError("labels length must match row count")
    if exclude_noise:
        keep = labels != NOISE
        data = data[keep]
        labels = labels[keep]
    ids = np.unique(labels)
    k = len(ids)
    if k < 2:
        raise UndefinedDbiError(f"DBI needs at least 2 clusters, got {k}")

    centroids = np.array([data[labels == c].mean(axis=0) for c in ids])
    scatters = np.array(
        [np.sqrt(((data[labels == c] - centroids[i]) ** 2).sum(axis=1)).mean() for i, c in enumerate(ids)]
    )
    diff = centroids[:, None, :] - centroids[None, :, :]
    cdist = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
    off_diag = ~np.eye(k, dtype=bool)
    if (cdist[off_diag] == 0.0).any():
        raise UndefinedDbiError("coincident centroids of distinct clusters")

    ratios = (scatters[:, None] + scatters[None, :]) / np.where(off_diag, cdist, np.inf)
    return float(np.max(np.where(off_diag, ratios, -np.inf), axis=1).mean())


def _select_best(entries: list[SweepEntry]) -> SweepEntry:
    defined = [e for e in entries if e.dbi is not None]
    if not defined:
        raise SweepError("no valid clustering in range")
    # min DBI; ties resolve to the smallest parameter
    return min(defined, key=lambda e: (e.dbi, e.param))


def sweep_kmeans(
    m: FeatureMatrix | np.ndarray,
    k_range: range = DEFAULT_K_RANGE,
    seed: int = 0,
    household_id: str = "",
) -> SweepReport:
    """One kmeans_fit + DBI per k; best = minimum DBI."""
    data = _as_array(m)
    n = data.shape[0]
    ks = list(k_range)
    if not ks:
        raise ValueError("k_range must be non-empty")
    if ks[0] < 2 or ks[-1] > n - 1:
        raise ValueError(f"k_range must lie within [2, {n - 1}]")
    entries = []
    for k in ks:
        model = kmeans_fit(m, k=k, seed=seed)
        n_clusters = len(np.unique(model.labels))
        try:
            dbi = davies_bouldin(m, model.labels)
        except UndefinedDbiError:
            dbi = None
        entries.append(SweepEntry(param=float(k), dbi=dbi, n_clusters=n_clusters))
    return SweepReport(
        household_id=household_id,
        algorithm="kmeans",
        entries=entries,
        best=_select_best(entries),
        seed=seed,
    )


def sweep_gmm(
    m: FeatureMatrix | np.ndarray,
    g_range: range = DEFAULT_G_RANGE,
    seed: int = 0,
    household_id: str = "",
) -> SweepReport:
    """One gmm_fit + DBI on hard labels per g.

    Components left empty by the hard assignment are simply absent from
    the labeling, so an entry's n_clusters may be below its g.
    """
    data = _as_array(m)
    n = data.shape[0]
    gs = list(g_range)
    if not gs:
        raise ValueError("g_range must be non-empty")
    if gs[0] < 2 or gs[-1] > n - 1:
        raise ValueError(f"g_range must lie within [2, {n - 1}]")
    entries = []
    for g in gs:
        model = gmm_fit(m, g=g, seed=seed)
        n_clusters = len(np.unique(model.labels))
        try:
            dbi = davies_bouldin(m, model.labels)
        except UndefinedDbiError:
            dbi = None
        entries.append(SweepEntry(param=float(g), dbi=dbi, n_clusters=n_clusters))
    return SweepReport(
        household_id=household_id,
        algorithm="gmm",
        entries=entries,
        best=_select_best(entries),
        seed=seed,
    )


def sweep_dbscan(
    m: FeatureMatrix | np.ndarray,
    eps_values: list[float] = DEFAULT_EPS_VALUES,
    min_pts: int = DEFAULT_MIN_PTS,
    household_id: str = "",
) -> SweepReport:
    """One DBSCAN fit (all sharing one distance matrix) + noise-excluded
    DBI per eps value.

    Entries yielding fewer than 2 clusters are kept with an undefined
    DBI (for plotting curve gaps) but are never selectable as best.
    Raises SweepError when every entry is undefined.
    """
    if not eps_values:
        raise ValueError("eps_values must be non-empty")
    entries = []
    for result in dbscan_fits(m, eps_values, min_pts=min_pts):
        n_noise = int((result.labels == NOISE).sum())
        try:
            dbi = davies_bouldin(m, result.labels, exclude_noise=True)
        except UndefinedDbiError:
            dbi = None
        entries.append(
            SweepEntry(param=float(result.eps), dbi=dbi, n_clusters=result.n_clusters, n_noise=n_noise)
        )
    return SweepReport(
        household_id=household_id,
        algorithm="dbscan",
        entries=entries,
        best=_select_best(entries),
        seed=0,
    )
