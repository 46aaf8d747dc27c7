"""Gaussian mixture modelling by expectation-maximization.

The mixture density is a weighted sum of full-covariance multivariate
normals. Fits are initialized from a K-Means partition with the same
seed (fitted here, or handed over by a caller that already holds it),
responsibilities are computed in log-space, and every M-step floors
covariance diagonals to keep components non-singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mealclust.features import FeatureMatrix
from mealclust.kmeans import KMeansModel, kmeans_fit, _as_array, _centred

DEFAULT_MAX_ITER = 200
DEFAULT_TOL = 1e-6
VARIANCE_FLOOR = 1e-6

_LOG_2PI = float(np.log(2.0 * np.pi))


class FitError(RuntimeError):
    """EM fit collapsed numerically."""


@dataclass
class GmmParams:
    weights: np.ndarray  # (g,), in [0,1], sums to 1
    means: np.ndarray  # (g, D)
    covariances: np.ndarray  # (g, D, D), symmetric positive-definite

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.covariances = np.asarray(self.covariances, dtype=float)
        if self.covariances.ndim == 2:
            self.covariances = self.covariances[None, :, :]

    @property
    def g(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def validate(self) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if (self.weights < 0).any() or (self.weights > 1).any():
            raise ValueError("mixture weights must lie in [0, 1]")
        for cov in self.covariances:
            if not np.allclose(cov, cov.T):
                raise ValueError("covariance matrices must be symmetric")


@dataclass
class GmmModel:
    params: GmmParams
    labels: np.ndarray  # (N,) hard assignment = argmax responsibility
    log_likelihood: float
    log_likelihood_trace: list[float]
    weights_trace: list[np.ndarray] = field(default_factory=list)  # after each M-step
    iterations_run: int = 0
    seed: int = 0


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0, rounded exactly as ``np.sum`` rounds a sum of that
    many terms along a contiguous axis, but fast when each term is a long
    row.

    Along a contiguous axis numpy adds fewer than 8 terms in sequence. Up
    to 128 terms it keeps 8 running sums, each over every 8th term, adds
    them as a balanced tree and then adds the leftover terms in sequence;
    above 128 it splits the terms at a multiple of 8 near the middle and
    sums each half so. Along any other axis it adds in sequence, which is
    what ``sum(axis=0)`` does here.
    """
    n = len(terms)
    if n < 8:
        return terms.sum(axis=0)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum_terms(terms[:half]) + _sum_terms(terms[half:])
    rest = n - n % 8
    p = terms[:8].copy()  # the 8 running sums
    for i in range(8, rest, 8):
        p += terms[i : i + 8]
    total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    for term in terms[rest:]:
        total += term
    return total


# Layout rules. Every fit stays bit-identical to the per-component EM that
# tests/test_gmm.py keeps as `reference_gmm_fit`: one changed bit in one
# mean can change the summary.json a run writes, and that file must stay
# byte-identical as the code is sped up. Elementwise work may use any
# layout, and runs with the point axis N last, where numpy is fastest.
# Reductions may not: the order in which terms are added, and the operand
# layouts a BLAS product sees, decide the last bit.
# - Sums over the D coordinates and over the g components go through
#   `_sum_terms`, which rounds as a sum along a contiguous axis does.
# - The sum over the N points (nk) and every matrix product keep the
#   reference's memory order: `resp` is a C-contiguous (N, g) array, the
#   means come from `resp.T @ data`, and each covariance from the product
#   of two C-contiguous (N, D) blocks, which is why the centred points are
#   kept as a C-contiguous (g, N, D) array. Run on (g, D, N) arrays
#   instead, these products group the BLAS sums differently and move
#   entries by about 1e-16.
def _log_weighted_densities(diff_t: np.ndarray, weights: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """log(pi_k * F(x_n, theta_k)) for every component and point, shape
    (g, N), from the centred points diff_t[k] = (x - mean_k).T, shape
    (g, D, N) (a transposed view will do), via batched Cholesky
    factorizations."""
    d = diff_t.shape[1]
    chol = np.linalg.cholesky(covariances)  # (g, D, D)
    chol_inv = np.linalg.inv(chol)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)  # (g,)
    z = chol_inv @ diff_t  # (g, D, N)
    z *= z
    out = _sum_terms(z.transpose(1, 0, 2))  # (g, N) Mahalanobis terms
    out += (d * _LOG_2PI + log_det)[:, None]
    out *= -0.5
    with np.errstate(divide="ignore"):
        out += np.log(weights)[:, None]
    out[weights == 0.0] = -np.inf
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log of the sum of exp(a) over the component axis 0 of a (g, N) array."""
    m = np.max(a, axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    terms = a - m
    np.exp(terms, out=terms)
    return m + np.log(_sum_terms(terms))


def _point_log_weighted_densities(x: np.ndarray, params: GmmParams) -> np.ndarray:
    """log(pi_k * F(x, theta_k)) at a single point, shape (g, 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != params.d:
        raise ValueError(f"dimension mismatch: data has {x.shape[0]} columns, model expects {params.d}")
    diff_t = x[None, :, None] - params.means[:, :, None]
    return _log_weighted_densities(diff_t, params.weights, params.covariances)


def gmm_density(x: np.ndarray, params: GmmParams) -> float:
    """Mixture probability density at a single point."""
    log_wd = _point_log_weighted_densities(x, params)
    return float(np.exp(_logsumexp(log_wd)[0]))


def responsibilities(x: np.ndarray, params: GmmParams) -> np.ndarray:
    """Posterior component probabilities at a point, computed in log-space."""
    log_wd = _point_log_weighted_densities(x, params)
    return np.exp(log_wd[:, 0] - _logsumexp(log_wd)[0])


def _init_from_kmeans(data: np.ndarray, km: KMeansModel) -> GmmParams:
    """Start parameters from a K-Means partition of the data: cluster
    shares, centroids and floored cluster covariances."""
    g = km.k
    n, d = data.shape
    weights = np.bincount(km.labels, minlength=g).astype(float) / n
    means = km.centroids.copy()
    covariances = np.empty((g, d, d))
    global_diff = data - data.mean(axis=0)
    global_cov = global_diff.T @ global_diff / n
    for k in range(g):
        members = data[km.labels == k]
        if len(members) >= 2:
            diff = members - members.mean(axis=0)
            cov = diff.T @ diff / len(members)
        else:
            cov = global_cov.copy()
        covariances[k] = cov + VARIANCE_FLOOR * np.eye(d)
    return GmmParams(weights=weights, means=means, covariances=covariances)


def gmm_fit(
    m: FeatureMatrix | np.ndarray,
    g: int,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    kmeans_model: KMeansModel | None = None,
) -> GmmModel:
    """Fit a g-component mixture by EM.

    Starts from `kmeans_model` when given, which must be the default
    K-Means fit of these rows with k = g and this seed; otherwise fits it.
    Stops when the relative log-likelihood improvement drops below `tol`
    or after `max_iter` iterations. Hard labels are the per-point argmax
    responsibility (ties resolve to the lowest component index).
    """
    data = _as_array(m)
    n, d = data.shape
    if not 1 <= g <= n:
        raise ValueError(f"g must be in [1, {n}], got {g}")
    if n < 2:
        raise ValueError("gmm_fit requires at least 2 points")
    if kmeans_model is None:
        kmeans_model = kmeans_fit(data, k=g, seed=seed)
    elif (kmeans_model.k, kmeans_model.seed, len(kmeans_model.labels)) != (g, seed, n):
        raise ValueError(
            f"K-Means model (k={kmeans_model.k}, seed={kmeans_model.seed}, {len(kmeans_model.labels)} rows)"
            f" does not match g={g}, seed={seed}, {n} rows"
        )

    params = _init_from_kmeans(data, kmeans_model)
    weights, means, covariances = params.weights, params.means, params.covariances
    data_t = np.ascontiguousarray(data.T)
    diff = _centred(data_t, means)
    floor = VARIANCE_FLOOR * np.eye(d)

    ll_trace: list[float] = []
    weights_trace: list[np.ndarray] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # E-step
        log_wd = _log_weighted_densities(diff.transpose(0, 2, 1), weights, covariances)
        log_norm = _logsumexp(log_wd)
        if not np.isfinite(log_norm).all():
            raise FitError(f"numerical collapse at iteration {iterations}")
        ll = float(log_norm.sum())
        ll_trace.append(ll)

        # M-step
        resp_t = log_wd - log_norm  # (g, N)
        np.exp(resp_t, out=resp_t)
        resp = np.ascontiguousarray(resp_t.T)
        nk = resp.sum(axis=0)
        weights = nk / n
        alive = nk > 1e-12
        nk_safe = np.where(alive, nk, 1.0)
        new_means = (resp.T @ data) / nk_safe[:, None]
        # dead components keep their previous parameters at weight ~0
        new_means[~alive] = means[~alive]
        means = new_means
        diff = _centred(data_t, means)
        weighted = np.empty((g, n, d))  # weighted[k] = resp[:, k, None] * diff[k]
        for j in range(d):
            np.multiply(resp_t, diff[:, :, j], out=weighted[:, :, j])
        new_covariances = (weighted.transpose(0, 2, 1) @ diff) / nk_safe[:, None, None]
        new_covariances += floor
        new_covariances[~alive] = covariances[~alive]
        covariances = new_covariances
        weights_trace.append(weights.copy())

        if len(ll_trace) >= 2:
            prev = ll_trace[-2]
            if (ll - prev) < tol * abs(prev):
                break

    # final E-step so labels and likelihood reflect the converged parameters
    log_wd = _log_weighted_densities(diff.transpose(0, 2, 1), weights, covariances)
    log_norm = _logsumexp(log_wd)
    if not np.isfinite(log_norm).all():
        raise FitError(f"numerical collapse at iteration {iterations}")
    ll_trace.append(float(log_norm.sum()))
    labels = np.argmax(log_wd - log_norm, axis=0)
    return GmmModel(
        params=GmmParams(weights=weights, means=means, covariances=covariances),
        labels=labels,
        log_likelihood=ll_trace[-1],
        log_likelihood_trace=ll_trace,
        weights_trace=weights_trace,
        iterations_run=iterations,
        seed=seed,
    )


@dataclass(frozen=True)
class CategoryRow:
    category: int
    mean_duration_min: float
    weight: float
    count: int


def category_summary(model: GmmModel, m: FeatureMatrix) -> list[CategoryRow]:
    """Per-component mean durations in raw units, sorted ascending.

    Duration must be feature column 0; zscored matrices are inverse-mapped
    through their stored scaling metadata.
    """
    data = _as_array(m)
    if data.shape[0] != len(model.labels) or data.shape[1] != model.params.d:
        raise ValueError("feature matrix does not match the fitted model")
    mean_durations = model.params.means[:, 0].copy()
    if isinstance(m, FeatureMatrix) and m.scaling == "zscore":
        mean_durations = mean_durations * m.stds[0] + m.means[0]
    counts = np.bincount(model.labels, minlength=model.params.g)
    rows = [
        CategoryRow(
            category=k,
            mean_duration_min=float(mean_durations[k]),
            weight=float(model.params.weights[k]),
            count=int(counts[k]),
        )
        for k in range(model.params.g)
    ]
    rows.sort(key=lambda r: r.mean_duration_min)
    return rows
