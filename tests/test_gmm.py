import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mealclust import gmm
from mealclust.episodes import segment_episodes
from mealclust.events import filter_meal_locations
from mealclust.features import MODE_DURATION_ONLY, FeatureMatrix, build_features, scale_features
from mealclust.gmm import (
    MAX_ITER,
    TOL,
    VARIANCE_FLOOR,
    FitError,
    GmmModel,
    GmmParams,
    _init_from_kmeans,
    _sum_terms,
    category_summary,
    gmm_density,
    gmm_fit,
    gmm_fits,
    responsibilities,
)
from mealclust.kmeans import KMeansModel, kmeans_fit
from mealclust.synth import DEFAULT_CATEGORIES, HouseholdProfile, default_profile, generate_trace


def matrix(data):
    data = np.asarray(data, dtype=float)
    return FeatureMatrix(data=data, feature_names=[f"f{i}" for i in range(data.shape[1])])


def starts(m, gs, seed):
    """The K-Means start of each g, in the order of gs."""
    return [kmeans_fit(m, k=g, seed=seed) for g in gs]


def standard_2d():
    return GmmParams(weights=[1.0], means=[[0.0, 0.0]], covariances=[np.eye(2)])


def naive_density(x, params):
    """Direct (non-log-space) mixture density."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = 0.0
    for w, mu, cov in zip(params.weights, params.means, params.covariances):
        d = len(mu)
        diff = x - mu
        norm = 1.0 / np.sqrt((2 * np.pi) ** d * np.linalg.det(cov))
        total += w * norm * np.exp(-0.5 * diff @ np.linalg.inv(cov) @ diff)
    return total


def reference_log_weighted_densities(data, params):
    """log(pi_k * F(x, theta_k)) for every row and component, shape (N, g),
    one component at a time over (N, D) rows."""
    chol = np.linalg.cholesky(params.covariances)
    chol_inv = np.linalg.inv(chol)
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    maha = np.empty((data.shape[0], params.g))
    for k in range(params.g):
        z = (data - params.means[k]) @ chol_inv[k].T
        maha[:, k] = (z * z).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
    out = log_w[None, :] + -0.5 * (params.d * float(np.log(2.0 * np.pi)) + log_det[None, :] + maha)
    out[:, params.weights == 0.0] = -np.inf
    return out


def reference_logsumexp(a):
    """log(sum(exp(a), axis=1)) over an (N, g) array."""
    m = np.max(a, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True)))[:, 0]


def reference_gmm_fit(data, g, seed, max_iter=MAX_ITER, tol=TOL):
    """Per-component EM over (N, D) and (N, g) arrays: the loop form that
    gmm_fit must reproduce bit for bit."""
    n, d = data.shape
    params = _init_from_kmeans(data, kmeans_fit(data, k=g, seed=seed))
    eye = np.eye(d)
    ll_trace = []
    weights_trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        log_wd = reference_log_weighted_densities(data, params)
        log_norm = reference_logsumexp(log_wd)
        assert np.isfinite(log_norm).all()
        ll = float(log_norm.sum())
        ll_trace.append(ll)

        resp = np.exp(log_wd - log_norm[:, None])
        nk = resp.sum(axis=0)
        weights = nk / n
        alive = nk > 1e-12
        nk_safe = np.where(alive, nk, 1.0)
        means = (resp.T @ data) / nk_safe[:, None]
        covariances = np.empty((g, d, d))
        for k in range(g):
            diff = data - means[k]
            covariances[k] = (resp[:, k, None] * diff).T @ diff / nk_safe[k]
        covariances += VARIANCE_FLOOR * eye[None, :, :]
        means[~alive] = params.means[~alive]
        covariances[~alive] = params.covariances[~alive]
        params = GmmParams(weights=weights, means=means, covariances=covariances)
        weights_trace.append(weights.copy())
        if len(ll_trace) >= 2 and (ll - ll_trace[-2]) < tol * abs(ll_trace[-2]):
            break

    log_wd = reference_log_weighted_densities(data, params)
    log_norm = reference_logsumexp(log_wd)
    ll_trace.append(float(log_norm.sum()))
    return GmmModel(
        params=params,
        labels=np.argmax(log_wd - log_norm[:, None], axis=1),
        log_likelihood=ll_trace[-1],
        log_likelihood_trace=ll_trace,
        weights_trace=weights_trace,
        iterations_run=iterations,
        seed=seed,
    )


def assert_same_fit(got, want):
    """Exact equality, no tolerance: every bit of every output."""
    assert np.array_equal(got.params.weights, want.params.weights)
    assert np.array_equal(got.params.means, want.params.means)
    assert np.array_equal(got.params.covariances, want.params.covariances)
    assert np.array_equal(got.labels, want.labels)
    assert got.log_likelihood_trace == want.log_likelihood_trace
    assert len(got.weights_trace) == len(want.weights_trace)
    assert all(np.array_equal(a, b) for a, b in zip(got.weights_trace, want.weights_trace))
    assert got.iterations_run == want.iterations_run


def test_sum_terms_rounds_like_a_contiguous_sum():
    rng = np.random.default_rng(47)
    for n in [*range(1, 140), 300]:
        terms = rng.random((n, 2, 33)) * 10.0 ** rng.uniform(-8, 8, size=(n, 2, 33))
        want = np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1)
        assert np.array_equal(_sum_terms(terms), want), n


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fit_matches_reference_em(d):
    rng = np.random.default_rng(40 + d)
    centres = rng.uniform(-10, 10, size=(5, d))
    data = centres[rng.integers(0, 5, size=150)] + rng.normal(size=(150, d)) * rng.uniform(0.5, 2, size=d)
    for g in range(1, 11):
        model = gmm_fit(matrix(data), g=g, seed=g)
        assert_same_fit(model, reference_gmm_fit(data, g, seed=g))
        for x in data[:5]:
            want = reference_log_weighted_densities(x[None, :], model.params)
            assert np.array_equal(responsibilities(x, model.params), np.exp(want - reference_logsumexp(want))[0])


def test_fit_matches_reference_em_with_dead_components():
    # three distinct points for five components: k-means leaves two
    # clusters empty, so their weights start and stay at exactly 0
    data = np.array([[0.0, 0.0]] * 8 + [[3.0, 1.0]] * 7 + [[1.0, 4.0]] * 5)
    model = gmm_fit(matrix(data), g=5, seed=0)
    assert all((w == 0.0).sum() == 2 for w in model.weights_trace)
    assert_same_fit(model, reference_gmm_fit(data, 5, seed=0))


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_matches_reference_em_on_planted_study(seed):
    # the z-scored features of the planted-k recovery study (criterion 6)
    events = generate_trace(default_profile(days=365, seed=seed))
    m = scale_features(build_features(segment_episodes(filter_meal_locations(events))), "zscore")
    for g in range(2, 11):
        assert_same_fit(gmm_fit(m, g=g, seed=seed), reference_gmm_fit(m.data, g, seed=seed))


def test_fit_from_a_given_kmeans_model_equals_its_own_start():
    events = generate_trace(default_profile(days=365, seed=0))
    m = scale_features(build_features(segment_episodes(filter_meal_locations(events))), "zscore")
    kms = starts(m, range(2, 11), seed=4)
    for km, got in zip(kms, gmm_fits(m, kms)):
        assert got.params.g == km.k and got.seed == 4
        assert_same_fit(got, gmm_fit(m, g=km.k, seed=4))


def test_fit_rejects_a_mismatched_kmeans_model():
    rng = np.random.default_rng(43)
    data = rng.normal(size=(40, 2))
    km = kmeans_fit(data, k=3, seed=1)
    gmm_fits(matrix(data), [km])
    with pytest.raises(ValueError, match="does not match"):
        gmm_fits(matrix(data[:30]), [km])  # fitted on more rows
    with pytest.raises(ValueError, match="does not match"):
        gmm_fits(matrix(data), [km, kmeans_fit(data[:30], k=3, seed=1)])  # fitted on fewer rows


def profile_features(profile, scaling="none"):
    events = generate_trace(profile)
    return scale_features(build_features(segment_episodes(filter_meal_locations(events))), scaling)


SWEEP_GS = list(range(2, 11))


@pytest.fixture(scope="module")
def fleet_household():
    """One household of a 12-household fleet (60 days, ~210 episodes) and
    the reference fit of each sweep g."""
    m = profile_features(HouseholdProfile("hh-01", DEFAULT_CATEGORIES, days=60, seed=100_000))
    return m, {g: reference_gmm_fit(m.data, g, seed=3) for g in SWEEP_GS}


def test_fits_of_a_fleet_household_match_reference_in_one_stack(fleet_household):
    m, want = fleet_household
    for g, got in zip(SWEEP_GS, gmm_fits(m, starts(m, SWEEP_GS, 3))):
        assert_same_fit(got, want[g])


@pytest.fixture(scope="module")
def default_household():
    """The default profile's year of episodes (N = 1,303, raw features)
    and the reference fit of each sweep g."""
    m = profile_features(default_profile(days=365))
    return m, {g: reference_gmm_fit(m.data, g, seed=0) for g in SWEEP_GS}


def test_every_fit_is_in_the_first_e_step(default_household, monkeypatch):
    real_densities = gmm._log_weighted_densities
    stacked = []

    def recording_densities(diff_t, weights, covariances, **buffers):
        stacked.append(len(weights))
        return real_densities(diff_t, weights, covariances, **buffers)

    monkeypatch.setattr(gmm, "_log_weighted_densities", recording_densities)
    m, want = default_household
    gs = [7, 2, 10, 3, 9, 4, 5, 8, 6]
    for g, got in zip(gs, gmm_fits(m, starts(m, gs, 0))):
        assert_same_fit(got, want[g])
    assert stacked[0] == sum(gs)
    assert stacked == sorted(stacked, reverse=True)  # fits only leave


@pytest.mark.parametrize("cells", [1, 2_000, 10**9])
def test_fits_match_reference_at_any_stack_size(fleet_household, monkeypatch, cells):
    # the fits are split into gmm_fits calls of at most `cells` stacked
    # g x N cells (a larger fit goes alone): one fit per stack; a few
    # small fits per stack; every fit in one stack. A fit must not depend
    # on which other fits share its stack.
    real_densities = gmm._log_weighted_densities
    stacked = []

    def recording_densities(diff_t, weights, covariances, **buffers):
        stacked.append(len(weights))
        return real_densities(diff_t, weights, covariances, **buffers)

    monkeypatch.setattr(gmm, "_log_weighted_densities", recording_densities)
    m, want = fleet_household
    gs = [7, 2, 10, 3, 9, 4, 5, 8, 6]
    groups = [[gs[0]]]
    for g in gs[1:]:
        if (sum(groups[-1]) + g) * len(m.data) <= cells:
            groups[-1].append(g)
        else:
            groups.append([g])
    firsts = []
    for group in groups:
        stacked.clear()
        for g, got in zip(group, gmm_fits(m, starts(m, group, 3))):
            assert_same_fit(got, want[g])
        firsts.append(stacked[0])
    assert firsts == [sum(group) for group in groups]
    if cells == 1:
        assert len(groups) == len(gs)
    elif cells == 2_000:
        assert any(len(group) > 1 for group in groups) and len(groups) > 1
    else:
        assert groups == [gs]


@pytest.mark.parametrize("scaling", ["none", "zscore"])
def test_fits_of_the_default_profile_match_reference_in_several_stacks(default_household, scaling):
    m, want = default_household
    if scaling == "zscore":
        m = scale_features(m, scaling)
        want = {g: reference_gmm_fit(m.data, g, seed=0) for g in SWEEP_GS}
    for g, got in zip(SWEEP_GS, gmm_fits(m, starts(m, SWEEP_GS, 0))):
        assert_same_fit(got, want[g])


def test_duration_fits_of_the_default_profile_match_reference_in_one_stack():
    # D = 1: each fit's nk and means come from its own (N, g) copy
    events = generate_trace(default_profile(days=365))
    m = build_features(segment_episodes(filter_meal_locations(events)), MODE_DURATION_ONLY)
    assert m.d == 1
    for g, got in zip(SWEEP_GS, gmm_fits(m, starts(m, SWEEP_GS, 0))):
        assert_same_fit(got, reference_gmm_fit(m.data, g, seed=0))


def test_a_default_profile_sweep_stays_within_its_memory(default_household):
    # the stack's buffers at C = 54 components, N = 1,303, D = 2 take
    # about 2.8 MB; a stack that allocated anew in every step, or kept a
    # step's arrays alive into the next, would pass 4 MB
    m, _ = default_household
    assert len(m.data) == 1303
    fit_starts = starts(m, SWEEP_GS, 0)
    tracemalloc.start()
    try:
        gmm_fits(m, fit_starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6


@st.composite
def _lockstep_inputs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    # a coarse grid next to free floats, so coincident points and dead
    # components occur
    coords = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_subnormal=False))
    data = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=n, max_size=n)))
    gs = draw(st.lists(st.integers(1, min(n, 8)), min_size=1, max_size=5))
    return data, gs, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lockstep_inputs())
def test_fits_match_reference_property(inputs):
    data, gs, seed = inputs
    models = gmm_fits(matrix(data), starts(data, gs, seed))
    for g, got in zip(gs, models):
        assert_same_fit(got, reference_gmm_fit(data, g, seed))


def collapse_fits(monkeypatch, at):
    """Make the E-step of the fit with g components collapse at its
    at[g]-th E-step, in a lockstep stack or alone."""
    real_logsumexp = gmm._logsumexp
    seen = dict.fromkeys(at, 0)

    def collapsing_logsumexp(a, spans, **buffers):
        out = real_logsumexp(a, spans, **buffers)
        for i, (lo, hi) in enumerate(spans):
            if hi - lo in at:
                seen[hi - lo] += 1
                if seen[hi - lo] == at[hi - lo]:
                    out[i, 0] = -np.inf
        return out

    monkeypatch.setattr(gmm, "_logsumexp", collapsing_logsumexp)
    return seen


@pytest.mark.parametrize("gs", [[6, 2, 5, 3, 4], [6, 2, 3, 5, 4], [3, 4, 5, 6]])
def test_a_collapse_raises_the_error_of_the_first_collapsing_g(fleet_household, monkeypatch, gs):
    m, _ = fleet_household
    at = {5: 4, 3: 9}  # g = 5 collapses in its 4th E-step, g = 3 in its 9th
    seen = collapse_fits(monkeypatch, at)
    first = next(g for g in gs if g in at)
    with pytest.raises(FitError) as lockstep:
        gmm_fits(m, starts(m, gs, 3))
    for g in at:
        seen[g] = 0
    with pytest.raises(FitError) as alone:
        for g in gs:  # the per-g loop the lockstep stands for
            gmm_fit(m, g=g, seed=3)
    assert str(lockstep.value) == str(alone.value) == f"numerical collapse at iteration {at[first]}"


def test_far_starts_collapse_at_the_first_e_step():
    rng = np.random.default_rng(44)
    data = rng.normal(size=(30, 2))
    far = KMeansModel(3, np.full((3, 2), 1e200), np.arange(30) % 3, 0.0, [], 0, seed=0)
    with pytest.raises(FitError, match="at iteration 1$"), np.errstate(over="ignore", divide="ignore"):
        gmm_fits(matrix(data), [kmeans_fit(data, k=2, seed=0), far])


def test_density_peak_of_standard_normal():
    assert gmm_density([0.0, 0.0], standard_2d()) == pytest.approx(1 / (2 * np.pi))


def test_identical_components_collapse():
    single = standard_2d()
    double = GmmParams(
        weights=[0.3, 0.7],
        means=[[0.0, 0.0], [0.0, 0.0]],
        covariances=[np.eye(2), np.eye(2)],
    )
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=2)
        assert gmm_density(x, double) == pytest.approx(gmm_density(x, single))


def test_density_integrates_to_one_1d():
    params = GmmParams(
        weights=[0.4, 0.6],
        means=[[-2.0], [3.0]],
        covariances=[[[1.5]], [[0.5]]],
    )
    xs = np.linspace(-30, 30, 20001)
    ys = [gmm_density([x], params) for x in xs]
    assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-3)


def test_density_dominates_each_weighted_term():
    rng = np.random.default_rng(5)
    params = GmmParams(
        weights=[0.5, 0.5],
        means=rng.normal(size=(2, 2)),
        covariances=np.stack([np.eye(2), 2 * np.eye(2)]),
    )
    for _ in range(10):
        x = rng.normal(size=2)
        total = gmm_density(x, params)
        for w, mu, cov in zip(params.weights, params.means, params.covariances):
            term = w * naive_density(x, GmmParams(weights=[1.0], means=[mu], covariances=[cov]))
            assert total >= term - 1e-12


def test_responsibilities_single_component():
    assert responsibilities([1.0, 2.0], standard_2d()).tolist() == [1.0]


def test_responsibilities_symmetric_midpoint():
    params = GmmParams(
        weights=[0.5, 0.5],
        means=[[-1.0], [1.0]],
        covariances=[[[1.0]], [[1.0]]],
    )
    r = responsibilities([0.0], params)
    assert abs(r[0] - 0.5) < 1e-12 and abs(r[1] - 0.5) < 1e-12


def test_responsibilities_sum_to_one_and_match_naive():
    rng = np.random.default_rng(3)
    params = GmmParams(
        weights=[0.2, 0.5, 0.3],
        means=rng.normal(0, 2, size=(3, 2)),
        covariances=np.stack([np.eye(2) * s for s in (0.5, 1.0, 2.0)]),
    )
    for _ in range(20):
        x = rng.normal(0, 2, size=2)
        r = responsibilities(x, params)
        assert abs(r.sum() - 1.0) < 1e-12
        terms = np.array([
            w * naive_density(x, GmmParams(weights=[1.0], means=[mu], covariances=[cov]))
            for w, mu, cov in zip(params.weights, params.means, params.covariances)
        ])
        assert np.abs(r - terms / terms.sum()).max() < 1e-10


def test_g1_closed_form():
    rng = np.random.default_rng(7)
    m = matrix(rng.normal(4, 3, size=(200, 2)))
    model = gmm_fit(m, g=1, seed=0)
    assert np.abs(model.params.means[0] - m.data.mean(axis=0)).max() < 1e-9
    diff = m.data - m.data.mean(axis=0)
    pop_cov = diff.T @ diff / len(diff)
    assert np.abs(model.params.covariances[0] - pop_cov).max() < 2e-6  # variance floor


def test_two_separated_gaussians_recovered():
    rng = np.random.default_rng(11)
    a = rng.normal([0, 0], 1.0, size=(140, 2))
    b = rng.normal([20, 20], 1.0, size=(60, 2))
    m = matrix(np.vstack([a, b]))
    model = gmm_fit(m, g=2, seed=0)
    means = model.params.means[np.argsort(model.params.means[:, 0])]
    assert np.abs(means[0] - [0, 0]).max() < 0.5
    assert np.abs(means[1] - [20, 20]).max() < 0.5
    weights = np.sort(model.params.weights)
    assert abs(weights[0] - 0.3) < 0.1 and abs(weights[1] - 0.7) < 0.1


def test_g_out_of_range():
    m = matrix([[0.0], [1.0]])
    with pytest.raises(ValueError):
        gmm_fit(m, g=3)
    with pytest.raises(ValueError):
        gmm_fit(m, g=0)


def test_log_likelihood_monotone():
    rng = np.random.default_rng(17)
    for trial in range(20):
        m = matrix(rng.normal(size=(60, 2)))
        model = gmm_fit(m, g=3, seed=trial)
        trace = model.log_likelihood_trace
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_weights_valid_after_every_m_step():
    rng = np.random.default_rng(19)
    m = matrix(rng.normal(size=(80, 2)))
    model = gmm_fit(m, g=4, seed=0)
    for w in model.weights_trace:
        assert abs(w.sum() - 1.0) < 1e-9
        assert (w >= 0).all() and (w <= 1).all()


def test_determinism():
    rng = np.random.default_rng(23)
    m = matrix(rng.normal(size=(70, 2)))
    a = gmm_fit(m, g=3, seed=5)
    b = gmm_fit(m, g=3, seed=5)
    assert (a.labels == b.labels).all()
    assert (a.params.means == b.params.means).all()
    assert a.log_likelihood == b.log_likelihood


def test_four_planted_duration_categories():
    rng = np.random.default_rng(29)
    planted = [5.0, 15.0, 30.0, 50.0]
    cols = [rng.normal(mu, mu * 0.1, size=100) for mu in planted]
    m = matrix(np.concatenate(cols)[:, None])
    model = gmm_fit(m, g=4, seed=1)
    recovered = np.sort(model.params.means[:, 0])
    for got, want in zip(recovered, planted):
        assert abs(got - want) / want < 0.10


def test_category_summary_g1():
    rng = np.random.default_rng(31)
    m = matrix(rng.normal(20, 2, size=(50, 1)))
    model = gmm_fit(m, g=1, seed=0)
    rows = category_summary(model, m)
    assert len(rows) == 1
    assert rows[0].mean_duration_min == pytest.approx(m.data[:, 0].mean(), abs=1e-6)
    assert rows[0].weight == pytest.approx(1.0)
    assert rows[0].count == 50


def test_category_summary_planted_and_conservation():
    rng = np.random.default_rng(37)
    planted = [5.0, 15.0, 30.0, 50.0]
    durations = np.concatenate([rng.normal(mu, mu * 0.1, size=80) for mu in planted])
    hours = np.concatenate([rng.normal(h, 0.4, size=80) for h in (8, 12, 16, 20)])
    m = matrix(np.column_stack([durations, hours]))
    scaled = scale_features(m, "zscore")
    model = gmm_fit(scaled, g=4, seed=0)
    rows = category_summary(model, scaled)
    means = [r.mean_duration_min for r in rows]
    assert means == sorted(means)
    for got, want in zip(means, planted):
        assert abs(got - want) / want < 0.10
    assert sum(r.weight for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert sum(r.count for r in rows) == 320


def test_category_summary_mismatch_rejected():
    rng = np.random.default_rng(41)
    m = matrix(rng.normal(size=(30, 2)))
    model = gmm_fit(m, g=2, seed=0)
    other = matrix(rng.normal(size=(10, 2)))
    with pytest.raises(ValueError):
        category_summary(model, other)
