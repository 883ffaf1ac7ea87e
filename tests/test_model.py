import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import logsumexp as scipy_logsumexp

from gmmgen import SynthConfig, generate_demonstrations
from gmmgen import model as model_module
from gmmgen.data import EXP_ZERO, PhaseSchedule, Pose, TaskSpec, Trajectory
from gmmgen.model import (COLLAPSE_EPS, FitConfig, GmmModel, _checked_covs, _cluster_means,
                          _inverses, _kmeans_distances, _log_densities, _radius_bound, em_fit,
                          fit_gmm, kmeans_init, load_model, logsumexp, model_to_dict,
                          save_model)
from gmmgen.reparam import ReparamConfig, generalize
from gmmgen.scene import sample_task

from conftest import assert_monotone_loglik
from helpers import record_e_steps

PHASES_1S = PhaseSchedule(0.2, 0.8, 1.0)


def one_component(prior=1.0, mean=(0.5, 2.0), cov=((2.0, 1.0), (1.0, 3.0))):
    return GmmModel([prior], [mean], [cov], PHASES_1S)


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


def test_component_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        one_component(prior=0.0, cov=eye)
    with pytest.raises(ValueError):
        GmmModel([0.5], [[0.0]], [[[1.0]]], PHASES_1S)  # needs [t, x]
    with pytest.raises(ValueError):
        one_component(cov=[[1.0, 0.5], [0.4, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        one_component(cov=[[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError):
        one_component(cov=np.eye(3))  # shape mismatch
    with pytest.raises(ValueError):
        one_component(cov=[[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^component 0: parameters must be finite$"):
        GmmModel([1.0], [[0.5, 0.0]], [[[1.0, 0.0], [0.0, 1e308]]], PhaseSchedule(0.2, 0.8, 1.0))
    # construction symmetrizes within the tolerance
    model = one_component(cov=[[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    assert np.array_equal(model.covs, model.covs.transpose(0, 2, 1))
    assert not model.covs.flags.writeable


@pytest.mark.parametrize("mutate,problem", [
    (lambda covs, means: covs.__setitem__((1, 0, 0), np.nan), "parameters must be finite"),
    (lambda covs, means: means.__setitem__((1, 0), np.inf), "parameters must be finite"),
    (lambda covs, means: covs.__setitem__((1, 1, 1), 1e308), "parameters must be finite"),
    (lambda covs, means: covs.__setitem__((1, 0, 1), 0.9), "covariance must be symmetric"),
    (lambda covs, means: covs.__setitem__(1, [[1.0, 2.0], [2.0, 1.0]]),
     "covariance must be symmetric positive definite"),
], ids=["nan-cov", "inf-mean", "above-half-max", "asymmetric", "indefinite"])
def test_checked_covs_names_the_first_failing_component(mutate, problem):
    """The checker GmmModel runs names the first failing component of its
    one mixture.  A finite entry above half the largest float fails as
    non-finite: symmetrizing doubles it past the largest float."""
    priors = np.array([0.25, 0.25, 0.5])
    covs = np.tile(np.array([[1.0, 0.5], [0.5, 1.0]]), (3, 1, 1))
    means = np.zeros((3, 1))
    checked = _checked_covs(priors, means, covs)
    assert checked.tobytes() == covs.tobytes() and not checked.flags.writeable
    mutate(covs, means)
    mutate(covs[1:], means[1:])  # component 2 fails too, later, so it is not the one named
    with pytest.raises(ValueError, match=f"^component 1: {problem}$"):
        _checked_covs(priors, means, covs)


def test_model_validation():
    means = [[0.0, 0.0], [1.0, 1.0]]
    covs = [np.eye(2), np.eye(2)]
    model = GmmModel([0.5, 0.5], means, covs, PHASES_1S)
    assert model.n_components == 2 and model.dim == 1
    assert np.allclose(model.priors, [0.5, 0.5])
    with pytest.raises(ValueError):
        GmmModel([0.5, 0.5], means[::-1], covs, PHASES_1S)  # not time sorted
    with pytest.raises(ValueError):
        GmmModel([0.5, 0.6], means, covs, PHASES_1S)
    with pytest.raises(ValueError):
        GmmModel([], np.zeros((0, 2)), np.zeros((0, 2, 2)), PHASES_1S)
    # the generalization record is checked, not coerced
    for bad in ("no", 0, np.True_):
        with pytest.raises(ValueError, match="ablated must be a bool"):
            GmmModel([0.5, 0.5], means, covs, PHASES_1S, ablated=bad)
        with pytest.raises(ValueError, match="ablate_covariance must be a bool"):
            ReparamConfig(ablate_covariance=bad)
    for bad in (-3, 2.0, -2.7, True):
        with pytest.raises(ValueError, match="spd_repairs must be"):
            GmmModel([0.5, 0.5], means, covs, PHASES_1S, spd_repairs=bad)
    task = TaskSpec(Pose(np.zeros(3), np.zeros(3)), Pose(np.ones(3), np.zeros(3)))
    pose_means = np.column_stack([[0.0, 1.0], np.zeros((2, 6))])
    counted = GmmModel([0.5, 0.5], pose_means, [np.eye(7)] * 2, PHASES_1S, task=task,
                       spd_repairs=np.int64(2))
    assert counted.spd_repairs == 2
    # only a model with a task records a generalization, so none is lost on save
    for name, value in (("ablated", True), ("spd_repairs", 3)):
        with pytest.raises(ValueError, match=f"{name}={value} needs a task"):
            GmmModel([0.5, 0.5], means, covs, PHASES_1S, **{name: value})


def test_model_task_needs_pose_dimension(tmp_path):
    task = TaskSpec(Pose(np.zeros(3), np.zeros(3)), Pose(np.ones(3), np.zeros(3)))
    for dim in (1, 2, 7):
        means = np.column_stack([[0.0, 1.0], np.zeros((2, dim))])
        covs = [np.eye(dim + 1)] * 2
        with pytest.raises(ValueError,
                           match=f"^task: its poses are 6-D but the model is {dim}-D$"):
            GmmModel([0.5, 0.5], means, covs, PHASES_1S, task=task)
        # the existing checks still come first
        with pytest.raises(ValueError, match="priors must sum to 1"):
            GmmModel([0.5, 0.6], means, covs, PHASES_1S, task=task)
    # a saved 1-D model given a task's keys no longer loads
    doc = {"D": 1, "T": 1.0, "phases": {"grasp_end": 0.2, "release_start": 0.8},
           "components": [{"pi": 1.0, "mu": [0.5, 0.0], "sigma": [1.0, 0.0, 0.0, 1.0]}],
           "task": task.to_dict()}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError,
                       match="model.json: task: its poses are 6-D but the model is 1-D"):
        load_model(path)


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


def em_input(edit):
    """(data, init) of 50 rows of width 3 and two components, after edit."""
    rng = np.random.default_rng(8)
    data = rng.normal(size=(50, 3))
    init = [np.array([0.5, 0.5]), data[:2].copy(), np.stack([np.eye(3)] * 2)]
    edit(data, init)
    return data, init


@pytest.mark.parametrize("edit,message", [
    (lambda data, init: init.__setitem__(1, np.zeros((2, 4))),
     r"init means must be \(G, 3\) rows as wide as the dataset, got shape \(2, 4\)"),
    (lambda data, init: init.__setitem__(1, np.zeros(3)),
     r"init means must be \(G, 3\) rows as wide as the dataset, got shape \(3,\)"),
    (lambda data, init: init.__setitem__(1, np.zeros((0, 3))),
     "need at least one initial component"),
    (lambda data, init: init.__setitem__(0, np.array([1.0])),
     r"init priors must be \(2,\), one per mean, got shape \(1,\)"),
    (lambda data, init: init.__setitem__(0, np.array(1.0)),
     r"init priors must be \(2,\), one per mean, got shape \(\)"),
    (lambda data, init: init.__setitem__(2, np.stack([np.eye(2)] * 2)),
     r"init covs must be \(2, 3, 3\), one per mean, got shape \(2, 2, 2\)"),
    (lambda data, init: init.__setitem__(2, np.stack([np.eye(3)] * 3)),
     r"init covs must be \(2, 3, 3\), one per mean, got shape \(3, 3, 3\)"),
    (lambda data, init: data.__setitem__((17, 1), np.nan), "dataset row 17 must be finite"),
    (lambda data, init: data.__setitem__((4, 0), -np.inf), "dataset row 4 must be finite"),
    (lambda data, init: init[1].__setitem__((1, 2), np.nan),
     "init component 1: parameters must be finite"),
    (lambda data, init: init[0].__setitem__(0, 0.0), "init component 0: prior must be positive"),
    (lambda data, init: init[2].__setitem__((1, 0, 0), -1.0),
     "init component 1: covariance must be symmetric positive definite"),
], ids=["means-wider", "means-1d", "means-empty", "priors-short", "priors-scalar",
        "covs-narrower", "covs-more", "data-nan", "data-inf", "means-nan", "prior-zero",
        "covs-indefinite"])
def test_em_fit_rejects_bad_input_naming_the_argument(edit, message):
    data, init = em_input(edit)
    with pytest.raises(ValueError, match=f"^{message}$"):
        em_fit(data, init, FitConfig(n_components=2))


@pytest.mark.parametrize("rows", [lambda data: data[0], lambda data: data[:0]],
                         ids=["1d", "empty"])
def test_em_fit_rejects_a_dataset_that_is_not_rows(rows):
    data, init = em_input(lambda data, init: None)
    with pytest.raises(ValueError, match=r"^dataset must be a non-empty \(n, D\+1\) array$"):
        em_fit(rows(data), init, FitConfig(n_components=2))


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


@pytest.mark.parametrize("max_iters", [1, 100])
def test_fit_names_two_components_on_one_time_center(max_iters):
    """Two components that end EM on one time center are named, with the
    center, instead of failing GmmModel's ordering rule."""
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1.0, 6)
    demos = [Trajectory(times, rng.normal(size=(6, 2))) for _ in range(2)]
    with pytest.raises(ValueError, match=r"^components 0 and 1 \(in time order\) share the time "
                                         r"center 0\.1 after EM; fewer components may separate "
                                         r"them$"):
        fit_gmm(demos, FitConfig(n_components=6, max_iters=max_iters), PHASES_1S)


@pytest.mark.parametrize("duration", [1.5, 2.0])
def test_fit_without_phases_rejects_short_demonstrations_before_kmeans(duration, monkeypatch):
    """Without phases, demonstrations must outlast the default grasp and
    release holds; shorter ones fail before k-means, naming both holds,
    and a schedule passed for them fits."""
    times = np.linspace(0.0, duration, int(round(duration * 100)) + 1)
    rng = np.random.default_rng(5)
    demos = [Trajectory(times, 0.1 * rng.normal(size=(len(times), 6))) for _ in range(5)]

    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means ran")

    monkeypatch.setattr(model_module, "kmeans_init", no_kmeans)
    with pytest.raises(ValueError, match=rf"^demonstrations of {duration} s have no default "
                                         r"phases: their duration must exceed the 1\.0 s grasp "
                                         r"hold plus the 1\.0 s release hold, or phases must be "
                                         r"passed$"):
        fit_gmm(demos)
    monkeypatch.undo()
    phases = PhaseSchedule(0.5, duration - 0.5, duration)
    model = fit_gmm(demos, FitConfig(max_iters=2), phases).model
    assert model.phases == phases


def test_fit_gmm_sorted_and_phased(demos, fit_result):
    model = fit_result.model
    centers = model.means[:, 0]
    assert np.all(np.diff(centers) > 0.0)
    assert model.duration == pytest.approx(demos[0].duration)
    assert model.phases.grasp_end == pytest.approx(1.0)
    assert model.phases.release_start == pytest.approx(model.duration - 1.0)
    assert_monotone_loglik(fit_result.loglik_trace)


def model_of_kind(kind, model, scene, endpoints):
    """A fitted model, or one generalized from it to a sampled combined task."""
    if kind == "fitted":
        return model
    task = sample_task(scene, "combined", np.random.default_rng(99), *endpoints)
    if kind == "ablated":
        return generalize(model, task, ReparamConfig(ablate_covariance=True))
    out = generalize(model, task)
    if kind == "regeneralized":
        again = sample_task(scene, "combined", np.random.default_rng(7), *endpoints)
        out = generalize(out, again)
    return out


@pytest.mark.parametrize("kind", ["fitted", "generalized", "ablated", "regeneralized"])
def test_model_json_roundtrip(tmp_path, model, scene, endpoints, kind):
    model = model_of_kind(kind, model, scene, endpoints)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.duration == model.duration
    assert back.phases == model.phases
    for name in ("priors", "means", "covs", "slopes", "shapes"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    assert (back.task is None) == (model.task is None)
    if model.task is not None:
        assert np.array_equal(back.task.start_vector(), model.task.start_vector())
        assert np.array_equal(back.task.goal_vector(), model.task.goal_vector())
    assert back.ablated == model.ablated and back.spd_repairs == model.spd_repairs

    doc = json.loads(path.read_text())
    keys = ["D", "T", "phases", "components"]
    if kind != "fitted":
        keys += ["task", "ablate_covariance", "spd_repairs"]
    assert list(doc) == keys
    assert all(list(c) == ["pi", "mu", "sigma"] for c in doc["components"])


def test_model_with_stored_terms_loads_them_from_sigma():
    """A generalized model file in the older format, whose components also
    carry their slope "m" and shape "C", still loads.  The file was written
    by gmmgen at b3bc441: a 3-component 6-D helpers.random_spd_mixture
    (default_rng(1), scale 0.1) generalized to a task."""
    path = Path(__file__).parent / "data" / "parent_generalized_model.json"
    doc = json.loads(path.read_text())
    comps = doc["components"]
    sigma = np.array([c["sigma"] for c in comps]).reshape(len(comps), 7, 7)
    model = load_model(path)
    assert np.array_equal(model.priors, [c["pi"] for c in comps])
    assert np.array_equal(model.means, [c["mu"] for c in comps])
    assert np.array_equal(model.covs, sigma)
    assert np.array_equal(model.task.start_vector(), doc["task"]["start"])
    assert np.array_equal(model.task.goal_vector(), doc["task"]["goal"])
    assert not model.ablated and model.spd_repairs == 0
    assert np.array_equal(model.slopes, sigma[:, 1:, 0] / sigma[:, :1, 0])
    assert np.array_equal(model.shapes, sigma[:, 1:, 1:] / sigma[:, :1, :1])
    # the stored terms are the adapted ones, which differ from sigma's in the last bits
    stored = np.array([c["m"] for c in comps])
    assert not np.array_equal(model.slopes, stored)
    assert np.abs(model.slopes - stored).max() < 1e-15


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_model(path)
    with pytest.raises(ValueError):
        load_model(tmp_path / "missing.json")


@pytest.mark.parametrize("edit,message", [
    (lambda obj: [obj], "model JSON invalid: list indices must be integers or slices, not str"),
    (lambda obj: {**obj, "phases": [0.5, 1.5]},
     "model JSON invalid: list indices must be integers or slices, not str"),
    (lambda obj: {k: v for k, v in obj.items() if k != "phases"},
     "model JSON missing field: 'phases'"),
], ids=["document-list", "phases-list", "phases-missing"])
def test_load_model_tells_a_wrong_type_from_a_missing_field(tmp_path, edit, message):
    """A field of the wrong JSON type is invalid; only an absent one is missing."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(model_to_dict(one_component()))))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: {message}"


def oracle_kmeans_init(data, n_clusters, seed, cov_floor=1e-6, max_iters=300):
    """Reference k-means: 3-D broadcast distances and boolean-mask centroids."""
    n = len(data)
    t_rms = float(data[:, 0].std())
    x_dev = data[:, 1:] - data[:, 1:].mean(axis=0)
    x_rms = float(np.sqrt(np.mean(x_dev**2)))
    scale = x_rms / t_rms if t_rms > 0.0 and x_rms > 0.0 else 1.0
    work = data.copy()
    work[:, 0] *= scale
    rng = np.random.default_rng(seed)
    centroids = work[np.sort(rng.choice(n, size=n_clusters, replace=False))].copy()
    assign = np.full(n, -1)
    for _ in range(max_iters):
        dists = np.linalg.norm(work[:, None, :] - centroids[None, :, :], axis=2)
        new_assign = dists.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n_clusters)
        for _ in range(n_clusters):
            if not np.any(counts == 0):
                break
            k = int(np.flatnonzero(counts == 0)[0])
            own = dists[np.arange(n), new_assign]
            far = int(own.argmax())
            centroids[k] = work[far]
            new_assign[far] = k
            dists[far] = np.linalg.norm(work[far] - centroids, axis=1)
            counts = np.bincount(new_assign, minlength=n_clusters)
        if np.any(counts == 0):
            raise RuntimeError("k-means could not keep every cluster populated")
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(n_clusters):
            centroids[k] = work[assign == k].mean(axis=0)
    order = np.argsort([data[assign == k][:, 0].mean() for k in range(n_clusters)],
                       kind="stable")
    relabel = np.empty(n_clusters, dtype=int)
    relabel[order] = np.arange(n_clusters)
    assign = relabel[assign]
    priors = np.bincount(assign, minlength=n_clusters) / n
    d = data.shape[1]
    means = np.empty((n_clusters, d))
    covs = np.empty((n_clusters, d, d))
    for k in range(n_clusters):
        points = data[assign == k]
        means[k] = points.mean(axis=0)
        diff = points - means[k]
        cov = diff.T @ diff / len(points) + cov_floor * np.eye(d)
        covs[k] = 0.5 * (cov + cov.T)
    return assign, (priors, means, covs)


def oracle_log_densities(data, means, covs):
    """Reference log densities: one Cholesky and solve_triangular per component."""
    n, d = data.shape
    out = np.empty((n, len(means)))
    norm = 0.5 * d * np.log(2.0 * np.pi)
    for g in range(len(means)):
        chol = np.linalg.cholesky(covs[g])
        sol = solve_triangular(chol, (data - means[g]).T, lower=True)
        out[:, g] = -norm - np.log(np.diag(chol)).sum() - 0.5 * (sol**2).sum(axis=0)
    return out


def oracle_em_fit(data, init, config):
    """Reference EM: oracle_log_densities and scipy's logsumexp."""
    n, d = data.shape
    priors, means, covs = (np.array(a, dtype=float) for a in init)
    priors = priors / priors.sum()
    eye = np.eye(d)
    global_mean = data.mean(axis=0)
    global_cov = (data - global_mean).T @ (data - global_mean) / n
    trace = []
    prev = None
    backup = None
    for _ in range(config.max_iters):
        logp = oracle_log_densities(data, means, covs) + np.log(priors)
        per_point = scipy_logsumexp(logp, axis=1)
        loglik = float(per_point.sum())
        if prev is not None and loglik < prev:
            priors, means, covs = backup
            break
        trace.append(loglik)
        if prev is not None and loglik - prev < config.loglik_tol * abs(prev):
            break
        prev = loglik
        backup = (priors.copy(), means.copy(), covs.copy())
        resp = np.exp(logp - per_point[:, None])
        mass = resp.sum(axis=0)
        for g in range(len(priors)):
            if mass[g] < COLLAPSE_EPS:
                worst = int(per_point.argmin())
                means[g] = data[worst]
                covs[g] = global_cov + config.cov_floor * eye
                mass[g] = 1.0
                continue
            means[g] = resp[:, g] @ data / mass[g]
            diff = data - means[g]
            cov = (resp[:, g] * diff.T) @ diff / mass[g]
            covs[g] = 0.5 * (cov + cov.T) + config.cov_floor * eye
        priors = mass / mass.sum()
    return (priors, means, covs), np.asarray(trace)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_fit(got, want):
    (params, trace), (want_params, want_trace) = got, want
    for a, b in zip(params, want_params):
        assert_bitwise(a, b)
    assert_bitwise(trace, want_trace)


def clustered_rows(rng, n, dim, n_true):
    """n rows [t, x] around n_true centers spread in time and space."""
    centers = np.column_stack([np.sort(rng.uniform(0.0, 10.0, n_true)),
                               rng.normal(scale=3.0, size=(n_true, dim))])
    labels = rng.integers(0, n_true, n)
    spread = rng.uniform(0.05, 1.0, (n_true, dim + 1))
    return centers[labels] + spread[labels] * rng.normal(size=(n, dim + 1))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9), n_comp=st.integers(2, 8),
       per_comp=st.integers(3, 40), n_true=st.integers(1, 10))
def test_fit_matches_oracle_bitwise(seed, dim, n_comp, per_comp, n_true):
    rng = np.random.default_rng(seed)
    data = clustered_rows(rng, n_comp * per_comp, dim, n_true)
    assign, init = kmeans_init(data, n_comp, seed=seed % 1000)
    want_assign, want_init = oracle_kmeans_init(data, n_comp, seed=seed % 1000)
    assert_bitwise(assign, want_assign)
    for a, b in zip(init, want_init):
        assert_bitwise(a, b)
    config = FitConfig(n_components=n_comp, max_iters=25)
    assert_same_fit(em_fit(data, init, config), oracle_em_fit(data, want_init, config))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       width=st.sampled_from([2, 3, 5, 7, 8, 9, 15, 16, 17, 40, 129, 141, 300]),
       n_clusters=st.integers(1, 20))
def test_kmeans_steps_match_oracle_bitwise(seed, n, width, n_clusters):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, width)) * rng.uniform(1e-3, 1e3, width)
    centroids = rng.normal(size=(n_clusters, width)) * rng.uniform(1e-3, 1e3, width)
    cols = np.ascontiguousarray(rows.T)
    assert_bitwise(_kmeans_distances(cols, centroids),
                   np.linalg.norm(rows[:, None, :] - centroids[None, :, :], axis=2))
    n_clusters = min(n_clusters, n)
    assign = rng.permutation(np.arange(n) % n_clusters)
    counts = np.bincount(assign, minlength=n_clusters)
    assert_bitwise(_cluster_means(cols, assign, counts),
                   np.stack([rows[assign == k].mean(axis=0) for k in range(n_clusters)]))


def test_kmeans_empty_cluster_reseed_matches_oracle():
    # three locations repeated four times, plus four lone points
    locations = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 0.5], [2.0, -1.0, 3.0]])
    lone = np.random.default_rng(2).normal(size=(4, 3))
    data = np.vstack([np.repeat(locations, 4, axis=0), lone])
    reseeded = 0
    for seed in range(20):
        first = np.sort(np.random.default_rng(seed).choice(len(data), 6, replace=False))
        # two identical starting centroids leave the later one's cluster empty
        reseeded += len(np.unique(data[first], axis=0)) < 6
        assign, init = kmeans_init(data, 6, seed=seed)
        want_assign, want_init = oracle_kmeans_init(data, 6, seed=seed)
        assert np.bincount(assign, minlength=6).min() > 0
        assert_bitwise(assign, want_assign)
        for a, b in zip(init, want_init):
            assert_bitwise(a, b)
    assert reseeded >= 5
    # with more clusters than distinct locations, both give up alike
    dupes = np.repeat(locations, 4, axis=0)
    for fit in (kmeans_init, oracle_kmeans_init):
        with pytest.raises(RuntimeError, match="could not keep every cluster populated"):
            fit(dupes, 5, seed=0)


def lattice_rows(rng, n, width):
    """n rows drawn from a few integer-lattice points, so that rows repeat
    and distances tie exactly; half the cases hold the time column
    constant, which keeps the time scale 1 and every coordinate an integer."""
    span = int(rng.integers(1, 4))
    points = rng.integers(-span, span + 1, size=(int(rng.integers(2, 12)), width))
    data = points[rng.integers(0, len(points), n)].astype(float)
    if rng.integers(2):
        data[:, 0] = 1.0
    return data


@pytest.fixture
def kmeans_events(monkeypatch):
    """The calls kmeans_init makes, in order: "D" for _kmeans_distances, "M"
    for _cluster_means.  A pass computes distances once, twice when it
    reseeds, and ends with a centroid update unless it is the last, so "MDD"
    marks a reseed after the first pass."""
    events = []
    for name, tag, real in (("_kmeans_distances", "D", _kmeans_distances),
                            ("_cluster_means", "M", _cluster_means)):
        monkeypatch.setattr(f"gmmgen.model.{name}",
                            lambda *args, tag=tag, real=real: events.append(tag) or real(*args))
    return events


def test_bounded_kmeans_matches_oracle_on_lattice_ties(kmeans_events):
    events = kmeans_events
    later_reseeds = []

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([2, 7, 9]),
           n=st.integers(4, 60), n_clusters=st.integers(1, 12))
    def check(seed, width, n, n_clusters):
        data = lattice_rows(np.random.default_rng(seed), n, width)
        n_clusters = min(n_clusters, n)
        try:
            want_assign, want_init = oracle_kmeans_init(data, n_clusters, seed % 1000)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="could not keep every cluster populated"):
                kmeans_init(data, n_clusters, seed % 1000)
            return
        events.clear()
        assign, init = kmeans_init(data, n_clusters, seed % 1000)
        assert_bitwise(assign, want_assign)
        for a, b in zip(init, want_init):
            assert_bitwise(a, b)
        later_reseeds.append("MDD" in "".join(events))

    check()
    assert sum(later_reseeds) >= 20


def test_kmeans_bounds_rebuilt_after_a_later_reseed(kmeans_events):
    # points on a line: the reseed in a later pass moves a centroid next to
    # rows whose bounds were last computed against its old place
    line = [-10, -31, -11, 1, 35, -9, 1, -30, -8, -29, 39, -8, -1, -1, -7, -8, -34, -8, -33,
            -29, -9, -7, 41, -30, 1, -32]
    data = np.column_stack([np.ones(len(line)), line])
    assign, init = kmeans_init(data, 7, seed=320)
    assert "MDD" in "".join(kmeans_events)
    want_assign, want_init = oracle_kmeans_init(data, 7, seed=320)
    assert_bitwise(assign, want_assign)
    for a, b in zip(init, want_init):
        assert_bitwise(a, b)


def test_em_collapse_reset_matches_oracle():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(120, 3))
    # the third component sits far from every datum, so its mass underflows
    init = ([0.4, 0.4, 0.2], [data[0], data[1], np.full(3, 1e3)],
            [np.eye(3), np.eye(3), 1e-4 * np.eye(3)])
    one = FitConfig(n_components=3, max_iters=1)
    (_, means, _), _ = em_fit(data, init, one)
    worst = int(scipy_logsumexp(oracle_log_densities(data, np.array(init[1]),
                                                     np.array(init[2]))
                                + np.log(init[0]), axis=1).argmin())
    assert_bitwise(means[2], data[worst])  # the reset happened
    for config in (one, FitConfig(n_components=3, max_iters=40)):
        assert_same_fit(em_fit(data, init, config), oracle_em_fit(data, init, config))


def test_em_collapse_reset_takes_the_first_occurrence_of_a_repeated_worst_datum():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(120, 3))
    # the worst datum occurs three times; the copies differ only in the sign
    # of their zeros, which np.unique merges into one row that need not be
    # the first copy, so only the first occurrence itself gives data[30]'s bits
    data[30] = [-0.0, 9.0, -0.0]
    data[70] = [0.0, 9.0, 0.0]
    data[100] = [0.0, 9.0, -0.0]
    init = ([0.4, 0.4, 0.2], [data[0], data[1], np.full(3, 1e3)],
            [np.eye(3), np.eye(3), 1e-4 * np.eye(3)])
    one = FitConfig(n_components=3, max_iters=1)
    (_, means, _), _ = em_fit(data, init, one)
    assert_bitwise(means[2], data[30])
    assert np.signbit(means[2]).tolist() == [True, False, True]
    for config in (one, FitConfig(n_components=3, max_iters=40)):
        assert_same_fit(em_fit(data, init, config), oracle_em_fit(data, init, config))


def signed_zero_lattice_rows(rng, n, width):
    """lattice_rows with the zeros of about half the rows made -0.0, so that
    some rows differ from others only in the sign of a zero."""
    data = lattice_rows(rng, n, width)
    flip = (rng.random(n) < 0.5)[:, None] & (data == 0.0)
    data[flip] = -0.0
    return data


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([2, 7, 8, 9]),
       n=st.integers(4, 60), n_comp=st.integers(1, 8))
def test_em_fit_matches_oracle_on_repeated_rows(seed, width, n, n_comp):
    """The E-step runs on the distinct rows and gathers back; rows repeat
    here, and the widths take the squared norms both row by row (below 8)
    and through numpy's sum."""
    rng = np.random.default_rng(seed)
    data = signed_zero_lattice_rows(rng, n, width)
    n_comp = min(n_comp, n)
    means = data[rng.choice(n, n_comp, replace=False)] + rng.normal(scale=0.3,
                                                                    size=(n_comp, width))
    covs = rng.uniform(0.1, 3.0, (n_comp, 1, 1)) * np.eye(width)
    init = (rng.uniform(0.5, 2.0, n_comp), means, covs)
    config = FitConfig(max_iters=25)
    assert_same_fit(em_fit(data, init, config), oracle_em_fit(data, init, config))


def checked_e_steps(patch):
    """record_e_steps, checking each call against oracle_log_densities: a
    solved entry is bitwise the oracle's, and a skipped one (-inf) lies at
    least 746 below its row's maximum, where its exponentials are +0.0.
    The E-step's output is component-major, (G, n): it is read transposed."""
    def check(e_step, means, covs, log_priors, out):
        out = out.T
        want = oracle_log_densities(e_step.rows, means, covs) + log_priors
        skipped = np.isneginf(out) & ~np.isneginf(want)
        assert_bitwise(out[~skipped], want[~skipped])
        assert (want - want.max(axis=1, keepdims=True) <= EXP_ZERO)[skipped].all()

    return record_e_steps(patch, check)


def test_em_densities_run_on_distinct_corpus_rows(demos, monkeypatch):
    """808 of the seed-0 corpus's 3505 rows repeat another, mostly in the
    grasp and release holds.  Every solve sees distinct corpus rows only;
    the first iteration solves all 2697 for each of the 15 components, and
    the bounded iterations after it solve fewer pairs than that."""
    calls = checked_e_steps(monkeypatch)
    data = np.vstack([np.column_stack([d.times, d.values]) for d in demos])
    distinct = np.unique(data, axis=0)
    _, init = kmeans_init(data, 15, seed=0)
    em_fit(data, init, FitConfig(max_iters=3))
    assert len(data) == 3505 and len(distinct) == 2697 and len(calls) == 3
    for call in calls:
        for rows in call["solves"]:
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert np.isin(rows.view(np.void), distinct.view(np.void)).all()
    assert calls[0]["windows"] is None
    assert [len(rows) for rows in calls[0]["solves"]] == [2697] * 15
    assert all(call["windows"] is not None and sum(map(len, call["solves"])) < 2697 * 15
               for call in calls[1:])


def separated_rows(rng, n, dim, n_true):
    """n rows [t, x] around n_true centers tens of spreads apart, so that
    most pairs' log densities lie more than 746 below their row maximum."""
    centers = np.column_stack([np.sort(rng.uniform(0.0, 100.0, n_true)),
                               rng.normal(scale=30.0, size=(n_true, dim))])
    labels = rng.integers(0, n_true, n)
    spread = rng.uniform(0.05, 0.5, (n_true, dim + 1))
    return centers[labels] + spread[labels] * rng.normal(size=(n, dim + 1))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([3, 7, 8, 10]),
       path=st.sampled_from(["skips", "reset", "ill-conditioned", "overflow guard", "fix-up"]))
def test_bounded_e_step_matches_oracle_on_every_path(seed, width, path):
    """The bounded E-step skips only pairs whose responsibility is +0.0, so
    em_fit stays bitwise equal to oracle_em_fit whether it skips pairs or
    solves every one: on the first iteration (every fit), with
    ill-conditioned factors (a constant column beside a spread
    of 1e5, so the floored covariances stay ill-conditioned), with a row
    whose distances the overflow guard cannot certify, and in fix-up
    passes, forced by guessing every row maximum 1e4 above the last one.
    After a collapse reset the carried bounds still hold, so the reset path
    skips pairs too.  Widths 3 and 7 add squared norms row by row, 8 and 10
    by numpy's sum."""
    rng = np.random.default_rng(seed)
    data = separated_rows(rng, 120, width - 1, 4)
    if path == "ill-conditioned":
        data *= 1e5
        data[:, -1] = 0.5
    elif path == "overflow guard":
        data[int(rng.integers(120)), -1] = 1e151
    _, init = kmeans_init(data, 4, seed=seed % 1000)
    if path == "reset":  # the last component sits far from every datum, so its mass underflows
        init[1][-1] = 1e4
        init[2][-1] = 1e-4 * np.eye(width)
    config = FitConfig(n_components=4, max_iters=25)
    with pytest.MonkeyPatch.context() as patch:
        calls = checked_e_steps(patch)
        if path == "fix-up":
            patch.setattr(model_module, "TOP_MARGIN", -1e4)
        got = em_fit(data, init, config)
    assert_same_fit(got, oracle_em_fit(data, init, config))
    assert len(calls) >= 2 and calls[0]["windows"] is None
    skipped = [call["windows"] is not None for call in calls[1:]]
    if path == "skips":
        assert any(skipped)
    elif path == "reset":  # the first M-step moves the last mean onto a datum
        moved = em_fit(data, init, FitConfig(n_components=4, max_iters=1))[0][1][-1]
        assert (data == moved).all(axis=1).any()
    elif path in ("ill-conditioned", "overflow guard"):
        assert not any(skipped)
    else:
        assert sum(call["fixups"] for call in calls) > 0


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
       scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e100]))
def test_radius_bound_brackets_the_spectral_radius(seed, k, scale):
    """_radius_bound is never below a symmetric matrix's spectral radius and
    at most k^(1/32) above it, on spread and on near-identity spectra (the
    E-step's I - H / h); a zero matrix gives 0.  _inverses inverts each
    factor as np.linalg.inv does and gives nan for a singular one."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, k, k))
    a = a + np.swapaxes(a, 1, 2)
    a[1] = np.eye(k) + 1e-6 * a[1]
    a[2] = 0.0
    a *= scale
    radius = np.abs(np.linalg.eigvalsh(a)).max(axis=1)
    bound = _radius_bound(a)
    assert (bound >= radius * (1.0 - 1e-12)).all()
    assert (bound <= radius * k ** (1 / 32) * (1.0 + 1e-12)).all()
    assert bound[2] == 0.0
    chols = np.linalg.cholesky(a[[0]] @ a[[0]] + np.eye(k)[None])
    np.testing.assert_allclose(_inverses(chols), np.linalg.inv(chols), rtol=1e-9, atol=1e-12)
    chols[0, -1, -1] = 0.0
    assert np.isnan(_inverses(chols)).all()


def test_fit_sorts_the_corpus_rows_once(demos, monkeypatch):
    """A successful fit runs one np.unique over the corpus rows, em_fit's
    (the fit's bits are checked against the oracle below)."""
    calls = []
    unique = np.unique

    def counted(ar, *args, **kwargs):
        if kwargs.get("axis") == 0:
            calls.append(len(ar))
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    fit_gmm(demos, FitConfig(seed=0, max_iters=3))
    assert calls == [3505]


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n_demos=st.integers(1, 5), n_comp=st.integers(2, 12))
def test_fit_capacity_error_exactly_when_distinct_times_fall_short(seed, n_demos, n_comp):
    """Demonstrations repeat whole (repeated rows) and share 0.1 s lattice
    grids (repeated times).  Rows at distinct times differ, so the distinct
    rows never fall short first: the fit raises the capacity error exactly
    when the distinct times do, and the message gives np.unique's counts.
    (A fit that passes the check may still fail later, for example with two
    components on one time center.)"""
    rng = np.random.default_rng(seed)
    grids = [np.r_[0.0, np.sort(rng.choice(np.arange(1, 10), rng.integers(0, 10),
                                           replace=False)) / 10, 1.0] for _ in range(2)]
    demos = []
    for _ in range(n_demos):
        if demos and rng.random() < 0.4:
            demos.append(demos[rng.integers(len(demos))])
        else:
            times = grids[rng.integers(2)]
            demos.append(Trajectory(times, rng.normal(size=(len(times), 2))))
    rows = np.vstack([np.column_stack([d.times, d.values]) for d in demos])
    distinct, distinct_times = len(np.unique(rows, axis=0)), len(np.unique(rows[:, 0]))
    assert distinct >= distinct_times
    error = ""
    try:
        fit_gmm(demos, FitConfig(n_components=n_comp, max_iters=1), PHASES_1S)
    except ValueError as exc:
        error = str(exc)
    capacity = f"{n_comp} components need at least as many distinct samples"
    assert error.startswith(capacity) == (distinct_times < n_comp)
    if distinct_times < n_comp:
        assert error == (f"{capacity} and distinct sample times, got {distinct} distinct of "
                         f"{len(rows)} samples and {distinct_times} distinct times")


def assert_corpus_fit_matches_oracle(demos, fit_result):
    data = np.vstack([np.column_stack([d.times, d.values]) for d in demos])
    config = FitConfig(seed=0)
    _, init = oracle_kmeans_init(data, config.n_components, config.seed)
    (priors, means, covs), trace = oracle_em_fit(data, init, config)
    order = np.argsort(means[:, 0], kind="stable")
    model = fit_result.model
    for got, want in ((model.priors, priors), (model.means, means), (model.covs, covs)):
        assert_bitwise(got, want[order])
    assert_bitwise(fit_result.loglik_trace, trace)


def test_corpus_fit_matches_oracle_bitwise(demos, fit_result):
    assert_corpus_fit_matches_oracle(demos, fit_result)


def test_second_corpus_fit_matches_oracle_bitwise(scene, fit_result):
    # the synth seed-7 corpus, whose fit stops after another EM iteration count
    synth = SynthConfig(seed=7)
    demos, _ = generate_demonstrations(scene, synth)
    other = fit_gmm(demos, FitConfig(seed=0), phases=synth.phases())
    assert len(other.loglik_trace) != len(fit_result.loglik_trace)
    assert_corpus_fit_matches_oracle(demos, other)


def logsumexp_rows(rng, n_rows, n_cols):
    """Rows of the kinds logsumexp must get right, in turn: plain, ties at
    the max, some -inf, all equal, magnitude ~1e3, all -inf, and entries
    on both sides of the point where exp rounds to 0 after the max shift."""
    a = rng.normal(scale=3.0, size=(n_rows, n_cols))
    for r in range(n_rows):
        kind = r % 7
        if kind == 1:
            a[r, rng.integers(0, n_cols, 3)] = a[r].max()
        elif kind == 2:
            a[r, rng.integers(0, n_cols, 2)] = -np.inf
        elif kind == 3:
            a[r] = a[r, 0]
        elif kind == 4:
            a[r] = a[r] * 1e3 + rng.choice([-1e3, 1e3])
        elif kind == 5:
            a[r] = -np.inf
        elif kind == 6:
            others = rng.permutation(np.delete(np.arange(n_cols), a[r].argmax()))[:4]
            a[r, others] = a[r].max() - np.array([740.0, 745.2, 746.0, 1e4])[:len(others)]
    return a


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40), n_cols=st.integers(1, 20))
def test_logsumexp_matches_scipy_bitwise(seed, n_rows, n_cols):
    """Over the rows of the array and of its transpose.  logsumexp reduces
    the columns of a (G, n) array, in the order scipy's reduces C-ordered
    (n, G) rows (scipy's own order follows its input's memory layout), so
    each is passed transposed, both as a strided view and contiguous."""
    a = logsumexp_rows(np.random.default_rng(seed), n_rows, n_cols)
    for rows in (a, np.ascontiguousarray(a.T)):
        want = scipy_logsumexp(rows, axis=1)
        for cols in (rows.T, np.ascontiguousarray(rows.T)):
            assert_bitwise(logsumexp(cols), want)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1),
       g=st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 300]), n=st.integers(0, 12),
       order=st.sampled_from("CF"))
def test_column_sums_add_in_numpys_row_order(seed, g, n, order):
    """_column_sums is bitwise numpy's sum of each C-ordered row of a.T, so
    a numpy release that changes its pairwise order fails here instead of
    moving the fit: across row counts on both sides of numpy's 8 and 128
    entry steps, magnitudes that round differently in another order, signed
    zeros (a column of -0.0 sums to +0.0), infinities and nan, in either
    memory layout.  A nan sum matches any nan: which of two nan operands an
    add returns is the instruction's choice, not the order's."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(g, n)) * 10.0 ** rng.integers(-4, 5, size=(g, n))
    odd = rng.random(n) < 0.3  # the columns that also take huge, infinite and nan entries
    for value, share in ((0.0, 0.1), (-0.0, 0.1), (1e308, 0.05), (np.inf, 0.03),
                         (-np.inf, 0.03), (np.nan, 0.03)):
        a[(rng.random((g, n)) < share) & (odd | (value == 0.0))] = value
    a[:, :1] = -0.0
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.ascontiguousarray(a.T).sum(axis=1)
        got = model_module._column_sums(np.asarray(a, order=order))
    nan = np.isnan(want)
    assert_bitwise(np.isnan(got), nan)
    assert_bitwise(got[~nan], want[~nan])


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (5, 1), (2, 40)])
def test_logsumexp_shapes_match_scipy(shape):
    a = np.random.default_rng(3).normal(scale=400.0, size=shape)
    assert_bitwise(logsumexp(a.T), scipy_logsumexp(a, axis=1))


def test_logsumexp_non_finite_rows_match_scipy():
    a = np.array([[0.0, np.nan, 1.0], [np.inf, 0.0, -np.inf], [np.inf, -np.inf, np.nan],
                  [-np.inf, -np.inf, -np.inf], [np.inf, np.inf, 3.0], [-0.0, 0.0, -800.0]])
    for rows in (a, np.ascontiguousarray(a.T)):
        want = scipy_logsumexp(rows, axis=1)
        for cols in (rows.T, np.ascontiguousarray(rows.T)):
            assert_bitwise(logsumexp(cols), want)


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize("value", [1e160, -1e160, 1e300])
def test_kmeans_rejects_rows_whose_spread_overflows(column, value):
    """Finite rows too large to square raise a ValueError naming the row
    before any overflow warning fires (warnings are errors here)."""
    data = np.column_stack([np.linspace(0.0, 1.0, 20), np.zeros((20, 2))])
    data[13, column] = value
    with pytest.raises(ValueError, match="^dataset row 13 is too large to cluster"):
        kmeans_init(data, 3, seed=0)


def test_kmeans_rejects_non_finite_rows():
    data = np.column_stack([np.linspace(0.0, 1.0, 20), np.zeros((20, 2))])
    data[4, 1] = np.nan
    with pytest.raises(ValueError, match="^dataset row 4 must be finite$"):
        kmeans_init(data, 3, seed=0)


@pytest.mark.parametrize("value", [1e152, -1e153, 3e153])
def test_em_fit_rejects_a_row_whose_mahalanobis_distance_overflows(value):
    """A finite row that k-means can still cluster, but whose squared
    distance to a component overflows, raises a ValueError naming the
    largest such row, its first occurrence, before any overflow warning
    fires (warnings are errors here)."""
    data = np.column_stack([np.linspace(0.0, 1.0, 40), np.zeros((40, 2))])
    data[:, 2] = np.sin(7.0 * data[:, 0])
    data[13, 1] = value
    data[30] = data[13]  # np.unique merges it with row 13
    data[21, 1] = value / 10.0
    _, init = kmeans_init(data, 3, seed=0)
    with pytest.raises(ValueError, match="^dataset row 13 is too large to fit: its squared "
                                         "Mahalanobis distance to a component overflows$"):
        em_fit(data, init, FitConfig(n_components=3))


def oracle_checked_covs(priors, means, covs):
    """_checked_covs' checks with every reduction taken per component, the
    reference its whole-array fast paths must match."""
    flipped = np.swapaxes(covs, -2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = 0.5 * (covs + flipped)
        gaps = np.abs(covs - flipped).max(axis=(-2, -1))
    bad = ~(np.isfinite(priors) & np.isfinite(means).all(axis=-1)
            & np.isfinite(symmetric).all(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"component {np.flatnonzero(bad)[0]}: parameters must be finite")
    if not (priors > 0.0).all():
        raise ValueError(f"component {np.flatnonzero(~(priors > 0.0))[0]}: "
                         "prior must be positive")
    asym = gaps > 1e-9 * np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    if asym.any():
        raise ValueError(f"component {np.flatnonzero(asym)[0]}: covariance must be symmetric")
    for g, cov in enumerate(symmetric):
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError(f"component {g}: covariance must be symmetric positive "
                             "definite") from None
    return symmetric


COV_ENTRIES = st.sampled_from([0.0, -0.0, 1e-300, 1e-9, 0.5, 1.0, -1.0, 1e300, 1e308, -1e308,
                               np.inf, -np.inf, np.nan])


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(1, 4), size=st.integers(1, 4),
       edits=st.lists(st.tuples(st.integers(0, 10**6), COV_ENTRIES, st.booleans(),
                                st.sampled_from([0.0, 1e-12, 1e-6])), max_size=3),
       prior=st.sampled_from([None, 0.0, -1.0, np.nan]))
def test_checked_covs_matches_its_per_component_oracle(seed, n_comp, size, edits, prior):
    """On SPD stacks with entries replaced, mirrored or not and nudged by a
    relative gap, and with a bad prior, _checked_covs returns the oracle's
    symmetrized stack bitwise, read-only and fresh, or raises its error."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_comp, size, size))
    covs = a @ np.swapaxes(a, -1, -2) + np.eye(size)
    priors = np.full(n_comp, 1.0 / n_comp)
    means = rng.normal(size=(n_comp, size))
    for where, value, mirror, gap in edits:
        g, i, j = np.unravel_index(where % covs.size, covs.shape)
        covs[g, i, j] = value
        if mirror:
            with np.errstate(over="ignore", invalid="ignore"):
                covs[g, j, i] = value * (1.0 + gap)
    if prior is not None:
        priors[-1] = prior
    try:
        want = oracle_checked_covs(priors, means, covs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            _checked_covs(priors, means, covs)
        return
    got = _checked_covs(priors, means, covs)
    assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert not np.shares_memory(got, covs)


def test_model_never_stores_the_callers_arrays():
    """GmmModel freezes the arrays it computes in place and copies the
    caller's, even an exactly symmetric stack that symmetrizes to itself."""
    covs = np.tile(np.array([[1.0, 0.5], [0.5, 1.0]]), (2, 1, 1))
    priors, means = np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 1.0]])
    model = GmmModel(priors, means, covs, PHASES_1S)
    for name, given_array in (("priors", priors), ("means", means), ("covs", covs)):
        assert not np.shares_memory(getattr(model, name), given_array)
    for name in ("priors", "means", "covs", "slopes", "shapes"):
        assert not getattr(model, name).flags.writeable
    covs[0, 0, 0] = 2.0
    assert model.covs[0, 0, 0] == 1.0
