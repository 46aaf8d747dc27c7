"""Davies-Bouldin validation and per-algorithm parameter sweeps.

The Davies-Bouldin index (lower is better) scores a hard partition by
the mean, over clusters, of the worst-case ratio of summed scatters to
centroid distance. Sweeps fit one model per parameter value and select
the minimum-DBI entry, breaking ties toward the smallest parameter;
the report keeps that entry's fitted model. Each GMM starts from the
K-Means fit of its g, which a FeatureMatrix keeps for both sweeps.

The GMM sweep splits its g range into one share per CPU this process may
use (`parallel.cpu_budget`); this process fits one share and forked
children the others, each share in one lockstep `gmm_fits` call. Every
fit equals a lone fit bit for bit, so the report is the same bytes
whatever the number of shares.

Cluster ids are found by sorting (`np.unique` with counts) or counting
(`np.bincount`): a bare `np.unique` takes a hash path that imports
`numpy.ma`, which would add about 1.7 MiB to every process of a run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from mealclust.features import FeatureMatrix
from mealclust.kmeans import KMeansModel, kmeans_fit, _as_array
from mealclust.gmm import FitError, GmmModel, gmm_fits
from mealclust.dbscan import DbscanResult, dbscan_fits, NOISE, DEFAULT_MIN_PTS
from mealclust.parallel import cpu_budget, fork_map

DEFAULT_K_RANGE = range(2, 11)
DEFAULT_G_RANGE = range(2, 11)
DEFAULT_EPS_VALUES = [float(e) for e in range(1, 11)]


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
    # the fitted model behind `best`; not serialised
    best_model: KMeansModel | GmmModel | DbscanResult | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "household_id": self.household_id,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "entries": [asdict(e) for e in self.entries],
            "best": asdict(self.best),
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


def davies_bouldin(m: FeatureMatrix | np.ndarray, labels: np.ndarray) -> float:
    """Davies-Bouldin index of a hard partition, over the points not
    labelled NOISE.

    Scatter is the mean Euclidean distance of a cluster's members to its
    centroid. Raises UndefinedDbiError when fewer than 2 clusters remain
    after leaving out NOISE, or two cluster centroids coincide.
    """
    data = _as_array(m)
    labels = np.asarray(labels)
    if len(labels) != data.shape[0]:
        raise ValueError("labels length must match row count")
    keep = labels != NOISE
    data = data[keep]
    labels = labels[keep]
    ids, _ = np.unique(labels, return_counts=True)  # sorts: see the module docstring
    k = len(ids)
    if k < 2:
        raise UndefinedDbiError(f"DBI needs at least 2 clusters, got {k}")

    members = [data[labels == c] for c in ids]
    centroids = np.array([rows.mean(axis=0) for rows in members])
    scatters = np.array(
        [np.sqrt(((rows - centre) ** 2).sum(axis=1)).mean() for rows, centre in zip(members, centroids)]
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


def check_param_range(values: Sequence[int], name: str) -> None:
    """Raise ValueError unless the k or g range is non-empty and starts at 2
    or above."""
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if values[0] < 2:
        raise ValueError(f"{name} must start at 2 or above")


def _param_range(values: range, n: int, name: str) -> list[int]:
    """The k or g values to sweep, each a valid cluster count for n rows;
    the range is listed only once it is known to be within bounds."""
    check_param_range(values, name)
    if values[-1] > n - 1:
        raise ValueError(f"{name} must lie within [2, {n - 1}]")
    return list(values)


def _kmeans_fits(m: FeatureMatrix | np.ndarray, ks: list[int], seed: int) -> list[KMeansModel]:
    """The K-Means fit at each k with this seed; a FeatureMatrix keeps its
    fits, so only those it lacks are fitted, while an array keeps none."""
    kept = m.kmeans_fits if isinstance(m, FeatureMatrix) else {}
    for k in ks:
        if (k, seed) not in kept:
            kept[k, seed] = kmeans_fit(m, k=k, seed=seed)
    return [kept[k, seed] for k in ks]


def _sweep(
    m: FeatureMatrix | np.ndarray,
    algorithm: str,
    fits: Iterable[tuple[float, KMeansModel | GmmModel | DbscanResult]],
    seed: int,
    household_id: str,
) -> SweepReport:
    """Score each (param, fitted model) pair by the noise-excluded DBI of
    its labels and keep the model of the best entry.

    K-Means and GMM labels never hold NOISE, so for them the exclusion
    changes nothing.
    """
    entries, models = [], []
    for param, model in fits:
        labels = model.labels
        try:
            dbi = davies_bouldin(m, labels)
        except UndefinedDbiError:
            dbi = None
        noise = labels == NOISE
        n_clusters = int(np.count_nonzero(np.bincount(labels[~noise])))
        entries.append(SweepEntry(float(param), dbi, n_clusters, n_noise=int(noise.sum())))
        models.append(model)
    best = _select_best(entries)
    return SweepReport(household_id, algorithm, entries, best, seed, best_model=models[entries.index(best)])


def sweep_kmeans(
    m: FeatureMatrix | np.ndarray,
    k_range: range = DEFAULT_K_RANGE,
    seed: int = 0,
    household_id: str = "",
) -> SweepReport:
    """One K-Means fit + DBI per k; best = minimum DBI. The fits come
    from `m` where it already keeps them (see `FeatureMatrix`)."""
    ks = _param_range(k_range, len(_as_array(m)), "k_range")
    return _sweep(m, "kmeans", zip(ks, _kmeans_fits(m, ks, seed)), seed, household_id)


def _shares(gs: list[int], count: int) -> list[list[int]]:
    """The indices of `gs` in `count` shares balanced on the sum of g
    (longest processing time first): each g, largest first, goes to the
    share whose sum is smallest so far. Each share keeps the order of gs."""
    shares: list[list[int]] = [[] for _ in range(count)]
    sums = [0] * count
    for i in sorted(range(len(gs)), key=lambda i: -gs[i]):
        smallest = sums.index(min(sums))
        shares[smallest].append(i)
        sums[smallest] += gs[i]
    return [sorted(share) for share in shares]


def _fit_share(m: FeatureMatrix | np.ndarray, starts: list[KMeansModel]) -> list[GmmModel] | FitError:
    """The lockstep fits of one share, or the collapse that ended them."""
    try:
        return gmm_fits(m, starts)
    except FitError as exc:
        return exc


def _gmm_fits_in_shares(m: FeatureMatrix | np.ndarray, starts: list[KMeansModel]) -> list[GmmModel]:
    """`gmm_fits(m, starts)`, fitted as one lockstep share per CPU of the
    budget, all but the first share in forked children.

    A collapse raises the FitError of one lockstep over every start: that
    of the first start whose fit collapses, in whichever share it was.
    """
    shares = _shares([km.k for km in starts], min(cpu_budget(), len(starts)))
    outcomes = fork_map(lambda share: _fit_share(m, [starts[i] for i in share]), shares)
    collapses = [(share[out.start], out) for share, out in zip(shares, outcomes) if isinstance(out, FitError)]
    if collapses:
        raise min(collapses, key=lambda collapse: collapse[0])[1]
    fitted = {i: model for share, fits in zip(shares, outcomes) for i, model in zip(share, fits)}
    return [fitted[i] for i in range(len(starts))]


def sweep_gmm(
    m: FeatureMatrix | np.ndarray,
    g_range: range = DEFAULT_G_RANGE,
    seed: int = 0,
    household_id: str = "",
) -> SweepReport:
    """One GMM per g + DBI on hard labels per g. The g range is split
    into one share per CPU of `parallel.cpu_budget()`, balanced on the
    sum of g; each share is one lockstep `gmm_fits` call, the first fitted
    in this process and the others in forked children (this process fits
    the share of a child that dies).

    Each fit starts from the K-Means fit of `m` at k = g with this seed,
    the one a K-Means sweep of the same matrix and seed uses (see
    `FeatureMatrix`); those fits are made before any fork. Each fit
    equals a lone fit bit for bit, so the report does not depend on the
    shares, and a collapse raises the FitError of the first collapsing g,
    as one lockstep over the whole range does.

    Components left empty by the hard assignment are simply absent from
    the labeling, so an entry's n_clusters may be below its g.
    """
    gs = _param_range(g_range, len(_as_array(m)), "g_range")
    models = _gmm_fits_in_shares(m, _kmeans_fits(m, gs, seed))
    return _sweep(m, "gmm", zip(gs, models), seed, household_id)


def sweep_dbscan(
    m: FeatureMatrix | np.ndarray,
    eps_values: list[float] = DEFAULT_EPS_VALUES,
    min_pts: int = DEFAULT_MIN_PTS,
    household_id: str = "",
) -> SweepReport:
    """One DBSCAN labelling per eps value, all cut from one
    mutual-reachability spanning tree (`dbscan_fits`), + noise-excluded
    DBI per eps value.

    Entries yielding fewer than 2 clusters are kept with an undefined
    DBI (for plotting curve gaps) but are never selectable as best.
    Raises SweepError when every entry is undefined.
    """
    fits = [(result.eps, result) for result in dbscan_fits(m, eps_values, min_pts=min_pts)]
    return _sweep(m, "dbscan", fits, 0, household_id)
