"""Gaussian mixture modelling by expectation-maximization.

The mixture density is a weighted sum of full-covariance multivariate
normals. Each fit starts from a K-Means partition of the same rows,
whose k and seed become the fit's g and seed; responsibilities are
computed in log-space, and every M-step floors covariance diagonals to
keep components non-singular.

EM for several starts runs in lockstep (`gmm_fits`): the components
of every start are stacked along one component axis from the first
E-step, so each E-step and M-step makes one set of numpy calls for all
live fits at once, and a fit leaves the stack after its final E-step.
The stack's arrays are allocated once per call and reused by every
step, so its memory scales with the sum of g x N: a g = 2..10 sweep
peaks at 3.5 MB under tracemalloc on a year of episodes (N = 1,303,
D = 2) and at 13.9 MB on four years (N = 5,216). Every fit keeps its own iteration count and stopping test,
and equals a lone fit bit for bit; `gmm_fit` is the lockstep of one g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from mealclust.features import SCALING_ZSCORE, FeatureMatrix
from mealclust.kmeans import KMeansModel, kmeans_fit, _as_array, _centred

MAX_ITER = 200
TOL = 1e-6
VARIANCE_FLOOR = 1e-6

_LOG_2PI = float(np.log(2.0 * np.pi))


class FitError(RuntimeError):
    """EM fit collapsed numerically. `start` is the index, in the starts
    given to `gmm_fits`, of the fit that collapsed."""

    def __init__(self, message: str, start: int | None = None) -> None:
        super().__init__(message)
        self.start = start


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


@dataclass
class GmmModel:
    params: GmmParams
    labels: np.ndarray  # (N,) hard assignment = argmax responsibility
    log_likelihood: float
    log_likelihood_trace: list[float]
    weights_trace: list[np.ndarray] = field(default_factory=list)  # after each M-step
    iterations_run: int = 0
    seed: int = 0


def _sum_terms(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over axis 0 (into `out` when given), rounded exactly as
    ``np.sum`` rounds a sum of that many terms along a contiguous axis,
    but fast when each term is a long row.

    Along a contiguous axis numpy adds fewer than 8 terms in sequence. Up
    to 128 terms it keeps 8 running sums, each over every 8th term, adds
    them as a balanced tree and then adds the leftover terms in sequence;
    above 128 it splits the terms at a multiple of 8 near the middle and
    sums each half so. Along any other axis it adds in sequence, which is
    what ``sum(axis=0)`` does here.
    """
    n = len(terms)
    if n < 8:
        return terms.sum(axis=0, out=out)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return np.add(_sum_terms(terms[:half]), _sum_terms(terms[half:]), out=out)
    rest = n - n % 8
    p = terms[:8].copy()  # the 8 running sums
    for i in range(8, rest, 8):
        p += terms[i : i + 8]
    total = np.add((p[0] + p[1]) + (p[2] + p[3]), (p[4] + p[5]) + (p[6] + p[7]), out=out)
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
# - In a lockstep stack, what works on each component alone (Cholesky,
#   inverse, the batched products, elementwise work) runs once over the
#   stack, and so does nk: a sum down the columns of a C-contiguous
#   (N, C) array adds each column in sequence whatever C is, so one copy
#   of the whole stack's resp gives every fit's nk. Sums over a fit's g
#   components run per fit, and so does `resp.T @ data`, on the fit's
#   column slice of that copy. A g = 1 fit and D = 1 data take nk and the
#   product from the fit's own C-contiguous (N, g) copy instead, as the
#   reference does: numpy sums a g = 1 fit's one contiguous column
#   pairwise, not in sequence, and BLAS takes its one row through another
#   routine; a D = 1 product is a matrix-vector product, and on a column
#   slice it rounds some rows differently.
# - Buffers given through `out=` arguments hold the same C-contiguous
#   layouts as the arrays they stand for, so they change no bit.
def _log_weighted_densities(diff_t: np.ndarray, weights: np.ndarray, covariances: np.ndarray,
                            out: np.ndarray | None = None, z: np.ndarray | None = None) -> np.ndarray:
    """log(pi_k * F(x_n, theta_k)) for every component and point, shape
    (g, N), from the centred points diff_t[k] = (x - mean_k).T, shape
    (g, D, N) (a transposed view will do), via batched Cholesky
    factorizations. `out`, shape (g, N), and `z`, shape (g, D, N), are
    optional buffers for the result and the whitened points."""
    d = diff_t.shape[1]
    chol = np.linalg.cholesky(covariances)  # (g, D, D)
    chol_inv = np.linalg.inv(chol)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)  # (g,)
    z = np.matmul(chol_inv, diff_t, out=z)  # (g, D, N)
    z *= z
    out = _sum_terms(z.transpose(1, 0, 2), out=out)  # (g, N) Mahalanobis terms
    out += (d * _LOG_2PI + log_det)[:, None]
    out *= -0.5
    if (weights > 0.0).all():
        out += np.log(weights)[:, None]
    else:
        with np.errstate(divide="ignore"):
            out += np.log(weights)[:, None]
        out[weights == 0.0] = -np.inf
    return out


def _logsumexp(a: np.ndarray, spans: Sequence[tuple[int, int]], terms: np.ndarray | None = None) -> np.ndarray:
    """log of the sum of exp(a) over each fit's components: row i of the
    (F, N) result sums rows spans[i] of the stacked (C, N) array a. The
    maximum, the shift, the sum and its log are taken per fit, because the
    sum's rounding depends on the fit's g; the rest runs once over the
    stack, so a lone fit makes the calls of a plain logsumexp. `terms`,
    shape (C, N), is an optional buffer for the shifted exponentials."""
    m = np.empty((len(spans), a.shape[1]))
    for i, (lo, hi) in enumerate(spans):
        a[lo:hi].max(axis=0, out=m[i])
    m = np.where(np.isfinite(m), m, 0.0)
    if terms is None:
        terms = np.empty(a.shape)
    for i, (lo, hi) in enumerate(spans):
        np.subtract(a[lo:hi], m[i], out=terms[lo:hi])
    np.exp(terms, out=terms)
    for i, (lo, hi) in enumerate(spans):
        total = _sum_terms(terms[lo:hi])
        np.add(m[i], np.log(total, out=total), out=m[i])
    return m


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
    return float(np.exp(_logsumexp(log_wd, [(0, params.g)])[0, 0]))


def responsibilities(x: np.ndarray, params: GmmParams) -> np.ndarray:
    """Posterior component probabilities at a point, computed in log-space."""
    log_wd = _point_log_weighted_densities(x, params)
    return np.exp(log_wd[:, 0] - _logsumexp(log_wd, [(0, params.g)])[0, 0])


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


@dataclass
class _Fit:
    """One fit of a lockstep: its place in the caller's list and its records."""

    order: int
    g: int
    done: bool  # met TOL or MAX_ITER, so its next E-step is its last
    iterations: int = 0
    ll_trace: list[float] = field(default_factory=list)
    weights_trace: list[np.ndarray] = field(default_factory=list)


def _spans(fits: list[_Fit]) -> list[tuple[int, int]]:
    """Each fit's rows of the stacked component axis, as (start, stop)."""
    edges = list(accumulate((fit.g for fit in fits), initial=0))
    return list(zip(edges, edges[1:]))


def gmm_fits(m: FeatureMatrix | np.ndarray, starts: Sequence[KMeansModel]) -> list[GmmModel]:
    """Fit one mixture by EM from each K-Means fit in `starts`, in
    lockstep; model i has g = starts[i].k and seed = starts[i].seed, and
    equals bit for bit a lone fit from that start.

    The components of every start are stacked into one (C, N) state from
    the first E-step, so each E-step and M-step makes one set of numpy
    calls for all live fits; a fit leaves after its final E-step. The
    stack's centred points, log densities and one scratch array are
    allocated once, at C = the sum of every g, and each step works in
    their first C rows.

    Each fit stops when its relative log-likelihood improvement drops
    below TOL or after MAX_ITER iterations. Hard labels are the per-point
    argmax responsibility (ties resolve to the lowest component index). A
    collapse raises the FitError that fitting each start in turn would
    raise: that of the first start whose fit collapses, whose index in
    `starts` it holds as `start`.
    """
    data = _as_array(m)
    n, d = data.shape
    if n < 2:
        raise ValueError("gmm_fits requires at least 2 points")
    for km in starts:
        if len(km.labels) != n:
            raise ValueError(f"K-Means model of {len(km.labels)} rows does not match {n} rows")
    if not starts:
        return []

    data_t = np.ascontiguousarray(data.T)
    floor = VARIANCE_FLOOR * np.eye(d)
    live = [_Fit(i, km.k, done=False) for i, km in enumerate(starts)]
    spans = _spans(live)
    models: list[GmmModel] = [None] * len(starts)  # type: ignore[list-item]
    error: FitError | None = None
    init = [_init_from_kmeans(data, km) for km in starts]
    weights = np.concatenate([p.weights for p in init])
    means = np.concatenate([p.means for p in init])
    covariances = np.concatenate([p.covariances for p in init])
    c = len(weights)
    centred = np.empty((c, n, d))
    log_densities = np.empty((c, n))
    # z of the E-step, the logsumexp terms, the (N, C) resp and `weighted`
    # of the M-step, one after another
    scratch = np.empty(c * n * d)
    diff = _centred(data_t, means, out=centred)
    while live:
        # E-step; a fit that is done takes its final one and leaves
        log_wd = _log_weighted_densities(diff.transpose(0, 2, 1), weights, covariances,
                                         out=log_densities[:c], z=scratch[: c * d * n].reshape(c, d, n))
        log_norm = _logsumexp(log_wd, spans, terms=scratch[: c * n].reshape(c, n))
        finite = np.isfinite(log_norm).all(axis=1).tolist()
        lls = log_norm.sum(axis=1).tolist()
        keep = []
        for i, (fit, (lo, hi)) in enumerate(zip(live, spans)):
            fit.iterations += not fit.done
            if not finite[i]:
                # every later fit is moot: this error or an earlier fit's is raised
                error = FitError(f"numerical collapse at iteration {fit.iterations}", fit.order)
                break
            fit.ll_trace.append(lls[i])
            resp_t = log_wd[lo:hi]
            np.subtract(resp_t, log_norm[i], out=resp_t)  # log responsibilities
            if fit.done:
                models[fit.order] = GmmModel(
                    params=GmmParams(weights[lo:hi].copy(), means[lo:hi].copy(), covariances[lo:hi].copy()),
                    labels=np.argmax(resp_t, axis=0),
                    log_likelihood=lls[i],
                    log_likelihood_trace=fit.ll_trace,
                    weights_trace=fit.weights_trace,
                    iterations_run=fit.iterations,
                    seed=starts[fit.order].seed,
                )
            else:
                keep.append(i)
        if len(keep) < len(live):
            if not keep:
                break
            # the fits that go on move their rows to the front, in order
            rows = np.concatenate([np.arange(*spans[i]) for i in keep])
            log_densities[: len(rows)] = log_densities[rows]
            live = [live[i] for i in keep]
            spans = _spans(live)
            weights, means, covariances = weights[rows], means[rows], covariances[rows]
            c = len(weights)

        # M-step over the fits that go on
        resp_t = log_densities[:c]
        np.exp(resp_t, out=resp_t)
        nk = np.empty(c)
        new_means = np.empty((c, d))
        if d > 1:
            resp = scratch[: n * c].reshape(n, c)
            np.copyto(resp, resp_t.T)
            resp.sum(axis=0, out=nk)
        for lo, hi in spans:
            if d == 1 or hi - lo == 1:
                fit_resp = np.ascontiguousarray(resp_t[lo:hi].T)  # (N, g)
                fit_resp.sum(axis=0, out=nk[lo:hi])
            else:
                fit_resp = resp[:, lo:hi]
            np.matmul(fit_resp.T, data, out=new_means[lo:hi])
        weights = nk / n
        alive = nk > 1e-12
        every_alive = alive.all()
        nk_safe = nk if every_alive else np.where(alive, nk, 1.0)
        new_means /= nk_safe[:, None]
        if not every_alive:
            # dead components keep their previous parameters at weight ~0
            new_means[~alive] = means[~alive]
        means = new_means
        diff = _centred(data_t, means, out=centred[:c])
        weighted = scratch[: c * n * d].reshape(c, n, d)  # weighted[k] = resp[:, k, None] * diff[k]
        for j in range(d):
            np.multiply(resp_t, diff[:, :, j], out=weighted[:, :, j])
        new_covariances = (weighted.transpose(0, 2, 1) @ diff) / nk_safe[:, None, None]
        new_covariances += floor
        if not every_alive:
            new_covariances[~alive] = covariances[~alive]
        covariances = new_covariances

        for fit, (lo, hi) in zip(live, spans):
            fit.weights_trace.append(weights[lo:hi].copy())
            ll = fit.ll_trace
            fit.done = fit.iterations == MAX_ITER or (len(ll) >= 2 and (ll[-1] - ll[-2]) < TOL * abs(ll[-2]))

    if error is not None:
        raise error
    return models


def gmm_fit(m: FeatureMatrix | np.ndarray, g: int, seed: int = 0) -> GmmModel:
    """Fit a g-component mixture by EM, started from its own K-Means fit
    with this seed."""
    return gmm_fits(m, [kmeans_fit(m, k=g, seed=seed)])[0]


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
    if isinstance(m, FeatureMatrix) and m.scaling == SCALING_ZSCORE:
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
