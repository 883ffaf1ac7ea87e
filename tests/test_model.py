import numpy as np
import pytest

from gmmgen.data import PhaseSchedule, Trajectory
from gmmgen.model import (FitConfig, GmmModel, em_fit, fit_gmm, kmeans_init,
                          load_model, save_model)

from conftest import assert_monotone_loglik

PHASES_1S = PhaseSchedule(0.2, 0.8, 1.0)


def one_component(prior=1.0, mean=(0.5, 2.0), cov=((2.0, 1.0), (1.0, 3.0)), **terms):
    return GmmModel([prior], [mean], [cov], 1.0, PHASES_1S, **terms)


def test_derived_slopes_shapes_hand_case():
    model = one_component()
    assert model.n_components == 1 and model.dim == 1
    assert model.means[0, 0] == 0.5 and model.means[0, 1] == 2.0
    assert model.covs[0, 0, 0] == 2.0
    assert model.covs[0, 0, 1] == 1.0 and model.covs[0, 1, 0] == 1.0
    assert model.covs[0, 1, 1] == 3.0
    # slope m = cov_xt / cov_tt and shape C = cov_xx / cov_tt
    assert model.slopes.shape == (1, 1) and model.shapes.shape == (1, 1, 1)
    assert model.slopes[0, 0] == pytest.approx(0.5)
    assert model.shapes[0, 0, 0] == pytest.approx(1.5)
    # given terms are kept as given
    given = one_component(slopes=[[0.25]], shapes=[[[1.0]]])
    assert given.slopes[0, 0] == 0.25 and given.shapes[0, 0, 0] == 1.0


def test_component_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        one_component(prior=0.0, cov=eye)
    with pytest.raises(ValueError):
        GmmModel([0.5], [[0.0]], [[[1.0]]], 1.0, PHASES_1S)  # needs [t, x]
    with pytest.raises(ValueError):
        one_component(cov=[[1.0, 0.5], [0.4, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        one_component(cov=[[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError):
        one_component(cov=np.eye(3))  # shape mismatch
    with pytest.raises(ValueError):
        one_component(cov=[[np.nan, 0.0], [0.0, 1.0]])
    # construction symmetrizes within the tolerance
    model = one_component(cov=[[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    assert np.array_equal(model.covs, model.covs.transpose(0, 2, 1))
    assert not model.covs.flags.writeable


def test_model_validation():
    means = [[0.0, 0.0], [1.0, 1.0]]
    covs = [np.eye(2), np.eye(2)]
    model = GmmModel([0.5, 0.5], means, covs, 1.0, PHASES_1S)
    assert model.n_components == 2 and model.dim == 1
    assert np.allclose(model.priors, [0.5, 0.5])
    with pytest.raises(ValueError):
        GmmModel([0.5, 0.5], means[::-1], covs, 1.0, PHASES_1S)  # not time sorted
    with pytest.raises(ValueError):
        GmmModel([0.5, 0.6], means, covs, 1.0, PHASES_1S)
    with pytest.raises(ValueError):
        GmmModel([0.5, 0.5], means, covs, 2.0, PHASES_1S)  # phase/duration mismatch
    with pytest.raises(ValueError):
        GmmModel([], np.zeros((0, 2)), np.zeros((0, 2, 2)), 1.0, PHASES_1S)


def test_given_terms_validation():
    # Schur complement C - mm^T = 1.0 - 1.5^2 < 0: the shape lost definiteness
    with pytest.raises(ValueError, match="component 0: spatial shape lost definiteness"):
        one_component(slopes=[[1.5]], shapes=[[[1.0]]])
    with pytest.raises(ValueError):
        one_component(slopes=[[0.5, 0.0]], shapes=[[[1.0]]])  # slopes not (G, D)
    with pytest.raises(ValueError):
        one_component(slopes=[[0.5]], shapes=[[1.0]])  # shapes not (G, D, D)
    with pytest.raises(ValueError):
        one_component(slopes=[[0.5]])  # shapes missing
    with pytest.raises(ValueError):
        one_component(slopes=[[np.inf]], shapes=[[[1.0]]])


def test_fitconfig_validation():
    with pytest.raises(ValueError):
        FitConfig(n_components=1)
    with pytest.raises(ValueError):
        FitConfig(max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(loglik_tol=0.0)


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(11)
    a = rng.normal([0.0, 0.0], 0.05, size=(60, 2))
    b = rng.normal([5.0, 3.0], 0.05, size=(40, 2))
    data = np.vstack([a, b])
    assign, (priors, means, covs) = kmeans_init(data, 2, seed=0)
    assert np.all(assign[:60] == 0) and np.all(assign[60:] == 1)
    assert means[0, 0] < means[1, 0]
    assert priors[0] == pytest.approx(0.6)
    assert np.allclose(means[0], a.mean(axis=0))
    assert np.allclose(means[1], b.mean(axis=0))
    assert covs.shape == (2, 2, 2)
    assert np.array_equal(covs, covs.transpose(0, 2, 1))


def test_kmeans_input_validation():
    data = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ValueError):
        kmeans_init(data, 6, seed=0)  # more clusters than rows
    with pytest.raises(ValueError):
        kmeans_init(data, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_init(data[:, 0], 2, seed=0)


def test_em_single_component_closed_form():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(200, 3))
    init = ([1.0], [data[0]], [np.eye(3)])
    config = FitConfig(n_components=2, max_iters=5, cov_floor=1e-6)
    (priors, means, covs), trace = em_fit(data, init, config)
    mean = data.mean(axis=0)
    diff = data - mean
    cov = diff.T @ diff / len(data) + config.cov_floor * np.eye(3)
    assert np.allclose(means[0], mean, atol=1e-12)
    assert np.allclose(covs[0], cov, atol=1e-12)
    assert priors[0] == 1.0
    assert len(trace) <= 5


def test_em_loglik_trace_monotone():
    rng = np.random.default_rng(17)
    t = rng.uniform(0.0, 4.0, size=400)
    x = np.sin(t) + rng.normal(scale=0.2, size=400)
    data = np.column_stack([t, x])
    _, init = kmeans_init(data, 4, seed=2)
    _, trace = em_fit(data, init, FitConfig(n_components=4, seed=2))
    assert_monotone_loglik(trace)


def test_em_two_component_recovery():
    rng = np.random.default_rng(42)
    n = 2000
    half = n // 2
    mean_a = np.array([1.0, -0.5])
    mean_b = np.array([4.0, 2.0])
    cov_a = np.array([[0.20, 0.05], [0.05, 0.10]])
    cov_b = np.array([[0.15, -0.04], [-0.04, 0.25]])
    data = np.vstack([
        rng.multivariate_normal(mean_a, cov_a, size=half),
        rng.multivariate_normal(mean_b, cov_b, size=n - half),
    ])
    _, init = kmeans_init(data, 2, seed=0)
    (priors, means, covs), trace = em_fit(data, init, FitConfig(n_components=2, seed=0))
    assert_monotone_loglik(trace)
    order = np.argsort(means[:, 0])
    priors, means, covs = priors[order], means[order], covs[order]
    assert np.allclose(means[0], mean_a, atol=0.05)
    assert np.allclose(means[1], mean_b, atol=0.05)
    assert np.allclose(covs[0], cov_a, atol=0.05)
    assert np.allclose(covs[1], cov_b, atol=0.05)
    assert abs(priors[0] - 0.5) < 0.05


def test_fit_gmm_validation():
    with pytest.raises(ValueError):
        fit_gmm([])
    base = Trajectory([0.0, 1.0], np.zeros((2, 6)))
    other = Trajectory([0.0, 2.0], np.zeros((2, 6)))
    with pytest.raises(ValueError):
        fit_gmm([base, other], FitConfig(n_components=2))
    with pytest.raises(ValueError) as err:
        fit_gmm([base], FitConfig(n_components=15))
    assert "15 components" in str(err.value)


def test_fit_gmm_sorted_and_phased(demos, fit_result):
    model = fit_result.model
    centers = model.means[:, 0]
    assert np.all(np.diff(centers) > 0.0)
    assert model.duration == pytest.approx(demos[0].duration)
    assert model.phases.grasp_end == pytest.approx(1.0)
    assert model.phases.release_start == pytest.approx(model.duration - 1.0)
    assert_monotone_loglik(fit_result.loglik_trace)


def test_model_json_roundtrip(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.duration == model.duration
    assert back.phases == model.phases
    for name in ("priors", "means", "covs", "slopes", "shapes"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_model(path)
    with pytest.raises(ValueError):
        load_model(tmp_path / "missing.json")
