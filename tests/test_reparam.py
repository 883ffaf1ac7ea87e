import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmgen.bench import default_times
from gmmgen import data as gdata
from gmmgen import model as gmodel
from gmmgen.data import PhaseSchedule, Pose, TaskSpec, Trajectory
from gmmgen.gmr import regress
from gmmgen.model import GmmModel, _cholesky_fails, load_model, model_to_dict, save_model
from gmmgen.reparam import (COV_FLOOR, DEGENERATE_EPS, ReparamConfig, _adapted_covs,
                            _clamp_spd, _generalized, _outers, _remapped_means, _repair,
                            _source_terms, generalize)
from gmmgen.scene import sample_task

from conftest import mutated
from helpers import (adapt_pool, assert_generalize_composes, oracle_clamp_spd,
                     oracle_reparam_covariances, oracle_reparam_means, pose_task,
                     random_endpoints, random_pose_mixture, random_spd_mixture, terms,
                     thin_repair_tasks)


def model_1d(x_means, slope=0.2, shape=1.0, tt=0.5):
    """Line of 1-D components with identical covariance structure."""
    x_means = np.asarray(x_means, dtype=float)
    n = len(x_means)
    times = np.arange(n, dtype=float)
    cov = tt * np.array([[1.0, slope], [slope, shape]])
    duration = float(times[-1])
    phases = PhaseSchedule(duration / 4.0, 3.0 * duration / 4.0, duration)
    return GmmModel(np.full(n, 1.0 / n), np.column_stack([times, x_means]),
                    np.tile(cov, (n, 1, 1)), phases)


EPS_1D = np.array([1e-4])


def remapped_means(model, new_start, new_goal, eps):
    """The spatial means (..., G, D) _remapped_means gives endpoints (..., D)
    with the model's source terms for eps."""
    ends = np.stack(np.broadcast_arrays(new_start, new_goal), axis=-2)
    return _remapped_means(model, ends, _source_terms(model, eps))[..., 1:]


def adapted_covs(model, new_means, eps):
    """(covs, repairs) of new means (..., G, D): _adapted_covs with the
    model's source terms for eps, then the repair scan."""
    covs = _adapted_covs(model, new_means, _source_terms(model, eps))
    return covs, _repair(covs, _cholesky_fails(covs[..., 1:, :, :]))


def assert_bitwise_equal(got, want):
    (covs, repairs), (want_covs, want_repairs) = got, want
    assert covs.shape == want_covs.shape and covs.tobytes() == want_covs.tobytes()
    assert repairs == want_repairs


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 6),
       dim=st.integers(1, 4), thin=st.booleans(),
       spread=st.sampled_from([0.3, 3.0, 30.0]))
def test_reparam_covariances_matches_oracle_bitwise(seed, n_comp, dim, thin, spread):
    rng = np.random.default_rng(seed)
    model = random_spd_mixture(rng, n_comp, dim, thin)
    new_means = model.means[:, 1:] * rng.uniform(-spread, spread, (n_comp, dim))
    eps = rng.uniform(1e-4, 0.5, dim)  # some consecutive differences keep their slope
    got = adapted_covs(model, new_means, eps)
    assert_bitwise_equal(got, oracle_reparam_covariances(model, new_means, eps))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 6), dim=st.integers(1, 4),
       thin=st.booleans(), n_sets=st.integers(1, 5))
def test_stacked_reparam_matches_one_set_at_a_time(seed, n_comp, dim, thin, n_sets):
    """Endpoint pairs stacked (T, D) give means (T, G, D), covs and repair
    counts bitwise equal to the per-pair oracles, row by row; thin mixtures
    bring SPD repairs into some rows and not others."""
    rng = np.random.default_rng(seed)
    model = random_spd_mixture(rng, n_comp, dim, thin)
    span = model.means[-1, 1:] - model.means[0, 1:]
    starts = rng.normal(size=(n_sets, dim))
    goals = starts + rng.uniform(-30.0, 30.0, (n_sets, dim)) * span
    eps = rng.uniform(1e-4, 0.5, dim)
    means = remapped_means(model, starts, goals, eps)
    covs, repairs = adapted_covs(model, means, eps)
    assert means.shape == (n_sets, n_comp, dim) and repairs.shape == (n_sets,)
    for k in range(n_sets):
        one = oracle_reparam_means(model, starts[k], goals[k], eps)
        assert means[k].tobytes() == one.tobytes()
        assert remapped_means(model, starts[k], goals[k], eps).tobytes() == one.tobytes()
        assert_bitwise_equal((covs[k], repairs[k]), oracle_reparam_covariances(model, one, eps))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 6), dim=st.integers(1, 4),
       thin=st.booleans())
def test_memoized_source_terms_match_the_oracles(seed, n_comp, dim, thin):
    """The remapped means and adapted covariances, with the source terms the
    calls before them left in each model's source cache, stay bitwise
    equal to the oracles: models A, B, A, a second eps, A's covariances
    under other spatial means and A's means with other covariances.  Each
    model keeps one entry, so A hits again after B and misses after the
    second eps."""
    rng = np.random.default_rng(seed)
    a, b = (random_spd_mixture(rng, n_comp, dim, thin) for _ in range(2))
    moved = GmmModel(a.priors, np.column_stack([a.means[:, 0], b.means[:, 1:]]), a.covs, a.phases)
    recast = GmmModel(a.priors, a.means, b.covs, a.phases)
    eps = rng.uniform(1e-4, 0.5, dim)
    wide = 2.0 * eps
    hits = 0
    for model, e in [(a, eps), (a, eps), (b, eps), (a, eps), (a, wide), (a, eps), (moved, eps),
                     (moved, eps), (a, eps), (recast, eps), (a, eps)]:
        entry = model._source_cache[0]
        span = model.means[-1, 1:] - model.means[0, 1:]
        start = rng.normal(size=dim)
        goal = start + rng.uniform(-30.0, 30.0, dim) * span
        means = remapped_means(model, start, goal, e)
        assert means.tobytes() == oracle_reparam_means(model, start, goal, e).tobytes()
        assert_bitwise_equal(adapted_covs(model, means, e),
                             oracle_reparam_covariances(model, means, e))
        hits += model._source_cache[0] is entry
        assert len(model._source_cache) == 1
    assert hits == 5


def reparam_stack(model, tasks, config=ReparamConfig()):
    """(means, covs, repairs) of many tasks generalized as one stack, on
    generalize()'s kernels."""
    starts = np.array([task.start_vector() for task in tasks])
    means = remapped_means(model, starts, np.array([task.goal_vector() for task in tasks]),
                           DEGENERATE_EPS)
    if config.ablate_covariance:
        return means, np.broadcast_to(model.covs, (len(tasks), *model.covs.shape)), [0] * len(tasks)
    return (means, *adapted_covs(model, means, DEGENERATE_EPS))


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_generalize_many_matches_generalize(model, scene, endpoints, ablate):
    """Many tasks generalized as one stack give each task's generalize()
    means, covariances and repair count bitwise: GmmModel stores the
    unrepaired stack's raw covariances unchanged."""
    rng = np.random.default_rng(17)
    tasks = [sample_task(scene, mode, rng, *endpoints)
             for mode in ("combined", "translational") for _ in range(6)]
    config = ReparamConfig(ablate_covariance=ablate)
    means, covs, repairs = reparam_stack(model, tasks, config)
    assert len(means) == len(covs) == len(repairs) == len(tasks)
    for task, mean, cov, repair in zip(tasks, means, covs, repairs):
        want = generalize(model, task, config)
        assert want.task is task and want.ablated is ablate
        assert mean.tobytes() == want.means[:, 1:].tobytes()
        assert cov.tobytes() == want.covs.tobytes()
        assert repair == want.spd_repairs
        assert json.dumps(model_to_dict(want)) == json.dumps(model_to_dict(
            GmmModel(model.priors, np.column_stack([model.means[:, 0], mean]), cov,
                     model.phases, task=task, ablated=ablate, spd_repairs=int(repair))))


def test_generalize_many_counts_repairs_per_task():
    """The repairing task and a task that needs none, in one stack, keep
    their own counts."""
    model, tasks = thin_repair_tasks()
    repairs = reparam_stack(model, tasks)[2]
    singles = [generalize(model, t).spd_repairs for t in tasks]
    assert list(repairs) == singles
    assert repairs[0] == 0 < repairs[1]
    assert all(isinstance(count, int) for count in singles)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 8), thin=st.booleans(),
       reach=st.sampled_from([2.0, 30.0]), ablate=st.booleans())
def test_generalize_is_the_model_of_reparam_bitwise(seed, n_comp, thin, reach, ablate):
    """On random mixtures, thin ones whose far tasks need SPD repairs
    included, generalize() is bitwise the model built from the per-component
    oracles of the mean remap and the covariance update, repair count
    included."""
    rng = np.random.default_rng(seed)
    model = random_spd_mixture(rng, n_comp, 6, thin, scale=rng.choice([0.1, 0.3, 1.0]))
    first, last = model.means[0, 1:], model.means[-1, 1:]
    start = rng.uniform(-1.0, 1.0, 6)
    goal = start + rng.uniform(-reach, reach, 6) * (last - first)
    turn = goal[3:] - start[3:]
    goal[3:] = start[3:] + turn / max(1.0, np.linalg.norm(turn))  # a valid pose
    task = TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))
    assert_generalize_composes(model, task, ReparamConfig(ablate_covariance=ablate))


def far_task(rng, model, reach):
    """A random task whose goal lies up to reach times the source's span
    from its start, in each dimension; at reach 30 a thin mixture's task
    often needs SPD repairs."""
    first, last = model.means[0, 1:], model.means[-1, 1:]
    start = rng.uniform(-1.0, 1.0, 6)
    goal = start + rng.uniform(-reach, reach, 6) * (last - first)
    turn = goal[3:] - start[3:]
    goal[3:] = start[3:] + turn / max(1.0, np.linalg.norm(turn))  # a valid pose
    return TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 8), thin=st.booleans(),
       n_tasks=st.integers(1, 6), ablate=st.booleans())
def test_a_stack_of_one_and_a_chunk_take_the_same_route(seed, n_comp, thin, n_tasks, ablate):
    """On random mixtures, thin ones whose far tasks need SPD repairs
    included, each row of _generalized on a chunk's stack of tasks is
    bitwise the one-task call's means, covs, broken flags and rule; and for
    each task generalize() accepts, the rule holds exactly when the result
    took the derived route, which shares its source's grid cache."""
    rng = np.random.default_rng(seed)
    model = random_spd_mixture(rng, n_comp, 6, thin, scale=rng.choice([0.1, 0.3, 1.0]))
    tasks = [far_task(rng, model, rng.choice([2.0, 30.0])) for _ in range(n_tasks)]
    ends = np.array([[task.start_vector(), task.goal_vector()] for task in tasks])
    stacked = _generalized(model, ends, ablate)
    config = ReparamConfig(ablate_covariance=ablate)
    for k, task in enumerate(tasks):
        single = _generalized(model, ends[k], ablate)
        assert (single[1] is None) == ablate  # every task's means are finite
        for got, rows in zip(single, stacked):
            if got is None:
                assert rows is None
            else:
                assert (got.shape, got.tobytes()) == (rows[k].shape, rows[k].tobytes())
        try:
            out = generalize(model, task, config)
        except ValueError:
            continue
        assert (out._grid_cache is model._grid_cache) == bool(single[3])


def test_generalize_repairs_as_reparam_covariances_does():
    """Seed 738's far task needs clamps: generalize() takes the repair scan
    after GmmModel rejects the unrepaired stack, and gives the composed
    route's clamped covariances and repair count bitwise."""
    model, (own, far) = thin_repair_tasks()
    assert assert_generalize_composes(model, own)[1] == 0
    assert assert_generalize_composes(model, far)[1] == 2


def test_generalize_scans_a_repaired_stack_once(monkeypatch):
    """Seed 738's far task: the rule's one batched Cholesky of the adapted
    stack after the first component fails, its scan factors each of those
    4 matrices, the repair clamps the flagged ones without factoring
    again, and GmmModel checks the repaired stack: 6 calls in all."""
    model, (_, far) = thin_repair_tasks()
    calls = []
    cholesky = np.linalg.cholesky

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert generalize(model, far).spd_repairs == 2
    assert calls == [(4, 7, 7)] + [(7, 7)] * 4 + [(5, 7, 7)]


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_generalize_factors_once_without_a_repair(model, scene, endpoints, monkeypatch,
                                                  ablate):
    """On sampled tasks that need no repair, each full generalize() makes
    exactly one Cholesky call, the rule's check of the adapted stack after
    the source's first component, and an ablated one none, on the thin far
    task too: it stores the source's covariances, which the source's
    constructor accepted.  A full task that needs repairs takes more."""
    rng = np.random.default_rng(5)
    tasks = [sample_task(scene, mode, rng, *endpoints)
             for mode in ("combined", "translational") for _ in range(4)]
    thin, (_, far) = thin_repair_tasks()
    calls = []
    cholesky = np.linalg.cholesky

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    config = ReparamConfig(ablate_covariance=ablate)
    for task in tasks:
        calls.clear()
        assert generalize(model, task, config).spd_repairs == 0
        assert calls == ([] if ablate else [model.covs[1:].shape])
    calls.clear()
    assert generalize(thin, far, config).spd_repairs == (0 if ablate else 2)
    assert len(calls) == 0 if ablate else len(calls) > 2


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_adapt_queries_recheck_nothing_the_library_built(model, scene, times, monkeypatch,
                                                         ablate):
    """On the adapt workload's task pool (run seed 1), no regress(generalize())
    query runs GmmModel's parameter checks (_checked_covs) or Trajectory's
    sample checks (_first_violation): the model inherits what its source
    passed and the trajectory what the query grid passed.  The public
    constructors still run both on the same values."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(gmodel, "_checked_covs")
    counted(gdata, "_first_violation")
    config = ReparamConfig(ablate_covariance=ablate)
    for task in adapt_pool(model, scene):
        adapted = generalize(model, task, config)
        traj = regress(adapted, times)
        assert calls == []
    GmmModel(adapted.priors, adapted.means, adapted.covs, adapted.phases, task=task,
             ablated=ablate)
    Trajectory(traj.times, traj.values)
    assert calls == ["_checked_covs", "_first_violation"]


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 8))
def test_generalize_keeps_schur_spectra_of_random_mixtures(seed, n_comp):
    rng, model, first, last = random_pose_mixture(seed, n_comp)
    out = generalize(model, pose_task(*random_endpoints(rng, first, last)))
    old = np.linalg.eigvalsh(model.shapes - _outers(model.slopes))
    new = np.linalg.eigvalsh(out.shapes - _outers(out.slopes))
    assert np.abs(new - old).max() < 1e-10
    assert out.spd_repairs == 0


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 8))
def test_generalize_regress_translates_with_the_task(seed, n_comp):
    """Holds with a moving first component: moving both endpoints by one
    vector leaves every consecutive mean difference, so every slope, as it was."""
    rng, model, first, last = random_pose_mixture(seed, n_comp)
    assert (model.slopes[0] != 0.0).all()
    start, goal = random_endpoints(rng, first, last)
    delta = rng.uniform(-0.5, 0.5, 6)
    times = default_times(model.duration)
    base = regress(generalize(model, pose_task(start, goal)), times)
    moved = regress(generalize(model, pose_task(start + delta, goal + delta)), times)
    assert np.abs(moved.values - (base.values + delta)).max() < 1e-9


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(2, 8))
def test_generalize_regress_scales_with_the_goal_from_a_static_start(seed, n_comp):
    """As component 1 keeps its slope, scaling the goal offsets scales the
    regression about the first mean when component 1 is static, and only
    in dimensions whose span and consecutive differences reach eps."""
    rng, model, first, last = random_pose_mixture(seed, n_comp, static_start=True)
    live = ((np.abs(last - first) >= DEGENERATE_EPS)
            & (np.abs(np.diff(model.means[:, 1:], axis=0)) >= DEGENERATE_EPS).all(axis=0))
    s = np.where(live, rng.uniform(0.5, 2.0, 6), 1.0)
    times = default_times(model.duration)
    base = regress(model, times)
    scaled = regress(generalize(model, pose_task(first, first + s * (last - first))), times)
    assert np.abs(scaled.values - (first + s * (base.values - first))).max() < 1e-9


def test_reparam_covariances_repairs_match_oracle(model, scene, endpoints):
    repairs = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        thin = random_spd_mixture(rng, 5, 3, thin=True)
        new_means = thin.means[:, 1:] * rng.uniform(-30.0, 30.0, (5, 3))
        got = adapted_covs(thin, new_means, np.full(3, 1e-4))
        assert_bitwise_equal(got, oracle_reparam_covariances(thin, new_means,
                                                             np.full(3, 1e-4)))
        repairs += got[1]
    assert repairs > 0
    # and on the fitted model over sampled tasks
    eps = DEGENERATE_EPS
    rng = np.random.default_rng(31)
    for _ in range(5):
        task = sample_task(scene, "combined", rng, *endpoints)
        new_means = remapped_means(model, task.start_vector(), task.goal_vector(), eps)
        assert_bitwise_equal(adapted_covs(model, new_means, eps),
                             oracle_reparam_covariances(model, new_means, eps))


def test_repaired_model_regresses_from_its_own_covariances():
    """An SPD repair reaches the covariances, so it must reach regression:
    the result regresses exactly as a model built from its covariances.
    The seed gives a thin mixture whose adapted covariances need repairs
    and whose regressed rotations stay below pi."""
    rng = np.random.default_rng(738)
    scale = rng.choice([0.3, 1.0])
    model = random_spd_mixture(rng, 5, 6, thin=True, scale=scale)
    first, last = model.means[0, 1:], model.means[-1, 1:]
    start = rng.uniform(-1.0, 1.0, 6)
    goal = start + rng.uniform(-30.0, 30.0, 6) * (last - first)
    out = generalize(model, TaskSpec(Pose.from_vector(start), Pose.from_vector(goal)))
    assert out.spd_repairs > 0
    times = default_times(model.duration)
    rebuilt = GmmModel(out.priors, out.means, out.covs, out.phases)
    assert np.array_equal(regress(out, times).values, regress(rebuilt, times).values)


def test_mean_scaling_hand_case():
    model = model_1d([1.0, 2.0, 3.0])
    out = remapped_means(model, np.array([1.0]), np.array([5.0]), EPS_1D)
    # scale (5-1)/(3-1)=2 about the first mean: middle 1 + 2*(2-1) = 3
    assert np.allclose(out[:, 0], [1.0, 3.0, 5.0], atol=1e-14)
    assert np.array_equal(out[0], [1.0])
    assert np.array_equal(out[-1], [5.0])


def test_mean_degenerate_offset_blend():
    model = model_1d([2.0, 2.5, 2.0])  # endpoint span 0 -> degenerate
    out = remapped_means(model, np.array([5.0]), np.array([5.5]), EPS_1D)
    # alpha over time centers [0,1,2] is [0, .5, 1]; blended offsets 3 and 3.5
    assert np.allclose(out[:, 0], [5.0, 5.75, 5.5], atol=1e-14)


def test_mean_identity_and_translation():
    model = model_1d([1.0, 2.5, 4.0])
    same = remapped_means(model, np.array([1.0]), np.array([4.0]), EPS_1D)
    assert np.allclose(same[:, 0], [1.0, 2.5, 4.0], atol=1e-14)
    moved = remapped_means(model, np.array([11.0]), np.array([14.0]), EPS_1D)
    assert np.allclose(moved[:, 0], [11.0, 12.5, 14.0], atol=1e-12)


def test_mean_input_validation():
    """generalize() names a model whose poses are not the task's 6-D ones
    and a model with one component; a task's poses are finite, so its
    endpoints are."""
    task = TaskSpec(Pose(np.zeros(3), np.zeros(3)), Pose(np.ones(3), np.zeros(3)))
    with pytest.raises(ValueError, match="^endpoints must be vectors of length 1$"):
        generalize(model_1d([1.0, 2.0, 3.0]), task)
    for dim in (2, 3, 5, 7):  # widths that do not broadcast against the 6-entry eps
        model = random_spd_mixture(np.random.default_rng(dim), 3, dim, thin=False)
        with pytest.raises(ValueError, match=f"^endpoints must be vectors of length {dim}$"):
            generalize(model, task)
        assert model._source_cache == [None]
    with pytest.raises(ValueError, match="^pose entries must be finite$"):
        Pose([np.nan, 0.0, 0.0], np.zeros(3))
    single = GmmModel([1.0], [[0.5, *np.zeros(6)]], [np.eye(7)], PhaseSchedule(0.25, 0.75, 1.0))
    with pytest.raises(ValueError, match="^mean reparameterization needs at least two components$"):
        generalize(single, task)


def test_covariance_slope_scaling_hand_case():
    model = model_1d([0.0, 1.0, 2.0], slope=0.2, shape=1.0, tt=0.5)
    new_means = remapped_means(model, np.array([0.0]), np.array([6.0]), EPS_1D)
    covs, repairs = adapted_covs(model, new_means, EPS_1D)
    slopes, shapes = terms(covs)
    # consecutive differences triple, so slopes triple for g >= 2
    assert slopes[0, 0] == 0.2  # first component untouched
    assert np.allclose(slopes[1:, 0], 0.6, atol=1e-14)
    # shape picks up m'm'^T - mm^T = 0.36 - 0.04
    assert np.allclose(shapes[1:, 0, 0], 1.32, atol=1e-14)
    assert shapes[0, 0, 0] == 1.0
    # assembled covariance keeps tt and scales the cross term
    assert np.allclose(covs[1], 0.5 * np.array([[1.0, 0.6], [0.6, 1.32]]),
                       atol=1e-14)
    assert np.array_equal(covs[0], model.covs[0])
    assert repairs == 0


def test_covariance_schur_complement_preserved():
    model = model_1d([0.0, 1.0, 2.0], slope=0.3, shape=1.5)
    new_means = remapped_means(model, np.array([-2.0]), np.array([10.0]), EPS_1D)
    slopes, shapes = terms(adapted_covs(model, new_means, EPS_1D)[0])
    for g in range(model.n_components):
        old = 1.5 - 0.3**2
        new = shapes[g, 0, 0] - slopes[g, 0] ** 2
        assert abs(new - old) < 1e-12


def test_covariance_degenerate_difference_keeps_slope():
    model = model_1d([1.0, 1.0 + 1e-6])  # consecutive difference below eps
    new_means = np.array([[2.0], [5.0]])
    covs, _ = adapted_covs(model, new_means, np.array([0.5]))
    assert terms(covs)[0][1, 0] == 0.2
    assert np.allclose(covs[1], model.covs[1], atol=1e-15)


def test_clamp_spd_restores_definiteness():
    floor = 1e-6
    fixed = _clamp_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), floor)
    vals = np.linalg.eigvalsh(fixed)
    assert vals[0] == pytest.approx(floor, rel=1e-9)
    assert vals[1] == pytest.approx(3.0)
    assert np.allclose(fixed, fixed.T)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), size=st.integers(1, 7),
       log_scale=st.floats(-6.0, 3.0), kind=st.sampled_from(["spd", "indefinite", "thin"]))
def test_clamp_spd_stack_matches_one_matrix_at_a_time(seed, k, size, log_scale, kind):
    """A (k, n, n) stack of symmetric matrices, definite, indefinite or with
    eigenvalues down at rounding level, clamps bitwise as the matrices do
    one by one."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, size, size))
    if kind == "indefinite":
        stack = a + np.swapaxes(a, -1, -2)
    else:
        stack = a @ np.swapaxes(a, -1, -2)
        if kind == "thin":  # one eigenvalue at ~1e-13 of the rest
            v = a[..., :, :1]
            stack = v @ np.swapaxes(v, -1, -2) + 1e-13 * np.eye(size)
    stack *= 10.0 ** log_scale
    got = _clamp_spd(stack, COV_FLOOR)
    want = np.stack([oracle_clamp_spd(m, COV_FLOOR) for m in stack])
    assert got.shape == stack.shape and got.tobytes() == want.tobytes()


def test_generalize_requires_pose_model():
    with pytest.raises(ValueError):
        generalize(model_1d([0.0, 1.0]),
                   TaskSpec(Pose(np.zeros(3), np.zeros(3)),
                            Pose(np.ones(3), np.zeros(3))))


def test_generalize_rejects_a_task_or_config_of_another_type(model, endpoints):
    task = TaskSpec(*endpoints)
    for bad in (None, True):
        with pytest.raises(TypeError, match=f"^config must be a ReparamConfig, got "
                                            f"{type(bad).__name__}$"):
            generalize(model, task, bad)
    for bad in (None, endpoints):
        with pytest.raises(TypeError, match=f"^task must be a TaskSpec, got "
                                            f"{type(bad).__name__}$"):
            generalize(model, bad)


def test_generalize_rejects_a_model_of_another_type(endpoints):
    for bad in ("model.json", None):
        with pytest.raises(TypeError, match=f"^model must be a GmmModel, got "
                                            f"{type(bad).__name__}$"):
            generalize(bad, TaskSpec(*endpoints))


def test_generalize_pins_endpoints_and_carryovers(model, scene, endpoints):
    rng = np.random.default_rng(123)
    task = sample_task(scene, "combined", rng, *endpoints)
    out = generalize(model, task)
    assert np.array_equal(out.means[0, 1:], task.start_vector())
    assert np.array_equal(out.means[-1, 1:], task.goal_vector())
    assert np.array_equal(out.priors, model.priors)
    assert np.array_equal(out.means[:, 0], model.means[:, 0])
    assert np.array_equal(out.covs[:, 0, 0], model.covs[:, 0, 0])
    # first component's covariance survives bitwise
    assert np.array_equal(out.covs[0], model.covs[0])
    assert np.array_equal(out.slopes[0], model.slopes[0])
    assert np.array_equal(out.shapes[0], model.shapes[0])
    assert out.spd_repairs == 0 and not out.ablated


def test_generalize_identity_recovers_model(model, endpoints):
    out = generalize(model, TaskSpec(*endpoints))
    assert np.allclose(out.means, model.means, atol=1e-12)
    assert np.allclose(out.covs, model.covs, atol=1e-12)


def test_generalize_schur_eigenvalues_match(model, scene, endpoints):
    rng = np.random.default_rng(7)
    slopes, shapes = model.slopes, model.shapes
    for trial in range(5):
        task = sample_task(scene, "combined", rng, *endpoints)
        out = generalize(model, task)
        for g in range(model.n_components):
            old = np.linalg.eigvalsh(shapes[g] - np.outer(slopes[g], slopes[g]))
            new = np.linalg.eigvalsh(
                out.shapes[g] - np.outer(out.slopes[g], out.slopes[g]))
            assert np.abs(new - old).max() < 1e-10
            np.linalg.cholesky(out.covs[g])
        assert out.spd_repairs == 0


def test_generalize_ablated_keeps_source_covariances(model, scene, endpoints):
    rng = np.random.default_rng(5)
    task = sample_task(scene, "combined", rng, *endpoints)
    out = generalize(model, task, ReparamConfig(ablate_covariance=True))
    assert out.ablated
    assert np.array_equal(out.slopes, model.slopes)
    assert np.array_equal(out.shapes, model.shapes)
    assert np.array_equal(out.covs, model.covs)
    # means are still remapped onto the task
    assert np.array_equal(out.means[0, 1:], task.start_vector())
    assert np.array_equal(out.means[-1, 1:], task.goal_vector())


@pytest.fixture(scope="module")
def model_documents(model, scene, endpoints, tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    task = sample_task(scene, "combined", np.random.default_rng(4), *endpoints)
    save_model(model, root / "model.json")
    save_model(generalize(model, task), root / "gen.json")
    return root, {name: json.loads((root / f"{name}.json").read_text())
                  for name in ("model", "gen")}


@pytest.mark.parametrize("name", ["model", "gen"])
def test_loaders_reject_mutated_json_with_located_error(model_documents, name):
    root, docs = model_documents
    path = root / f"mutated_{name}.json"

    def check(doc):
        path.write_text(json.dumps(doc))
        try:
            load_model(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    # integer fields set to infinity, which random mutation seldom reaches
    for field in ("D", "spd_repairs"):
        check(dict(docs[name], **{field: float("inf")}))
    # an integer too large for a float, in each component field
    for field in ("pi", "mu", "sigma"):
        doc = json.loads(json.dumps(docs[name]))
        comp = doc["components"][0]
        comp[field] = 10**400 if field == "pi" else [10**400] + comp[field][1:]
        check(doc)
    if name == "gen":
        # generalized keys of the wrong JSON type are rejected, not coerced
        for field, value in (("ablate_covariance", "false"), ("ablate_covariance", 0),
                             ("spd_repairs", -2.7), ("spd_repairs", 2.0),
                             ("spd_repairs", -1), ("spd_repairs", True)):
            path.write_text(json.dumps(dict(docs[name], **{field: value})))
            with pytest.raises(ValueError, match="must be") as err:
                load_model(path)
            assert str(err.value).startswith(f"{path}: ")
    settings(max_examples=300)(given(doc=mutated(docs[name]))(check))()
