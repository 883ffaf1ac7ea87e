import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from gmmgen.bench import _Compiled, default_times
from gmmgen.data import PhaseSchedule, Pose, TaskSpec
from gmmgen.gmr import _WEIGHTS_MEMO, regress
from gmmgen.model import GmmModel
from gmmgen.reparam import _SOURCE_MEMO, ReparamConfig, _curves, generalize
from gmmgen.scene import SuccessThresholds, default_scene, sample_task

from helpers import (compiled_values, pose_task, random_endpoints, random_pose_mixture,
                     random_spd_mixture, thin_past_pi_tasks, thin_repair_tasks)


def two_component_model(priors=(0.5, 0.5), t_means=(1.0, 3.0), x_means=(0.0, 1.0),
                        t_var=0.25, slope=0.0, shape=1.0):
    cov = t_var * np.array([[1.0, slope], [slope, shape]])
    duration = float(t_means[-1]) + 1.0
    phases = PhaseSchedule(duration / 4.0, 3.0 * duration / 4.0, duration)
    return GmmModel(priors, np.column_stack([t_means, x_means]), [cov, cov], phases)


def single_component_model(mean, cov):
    return GmmModel([1.0], [mean], [cov], PhaseSchedule(0.5, 1.5, 2.0))


def test_single_component_weight_is_one():
    # a lone component's weight is exactly 1, so regression is its own line
    cov = np.array([[0.5, 0.25], [0.25, 1.0]])  # slope 0.5
    model = single_component_model([1.0, 2.0], cov)
    times = np.array([0.0, 1.0, 2.0])
    traj = regress(model, times)
    assert np.array_equal(traj.values[:, 0], 2.0 + 0.5 * (times - 1.0))


def test_separated_component_center_returns_its_mean():
    # centers 2 s apart with a 0.1 s deviation: at one center the other
    # component's weight is about exp(-200) and vanishes next to its mean
    model = two_component_model(t_var=0.01, x_means=(0.3, 1.7))
    traj = regress(model, [0.0, 1.0, 3.0])
    assert traj.values[1, 0] == 0.3
    assert traj.values[2, 0] == 1.7


def test_symmetric_midpoint_weights():
    # equal priors and variances about the midpoint 2.0: the weights at t and
    # 4 - t swap, so with means 0 and 1 the two predictions sum to 1
    model = two_component_model(x_means=(0.0, 1.0))
    times = np.linspace(0.0, 4.0, 17)
    values = regress(model, times).values[:, 0]
    assert values[8] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(values + values[::-1], 1.0, atol=1e-12)


def test_priors_reweight_at_symmetric_time():
    model = two_component_model(priors=(0.3, 0.7), x_means=(0.0, 1.0))
    traj = regress(model, [0.0, 2.0, 4.0])
    assert traj.values[1, 0] == pytest.approx(0.7, abs=1e-12)


def test_partition_of_unity_at_extreme_times():
    # with a 1 ms time deviation every linear-space weight underflows far
    # from the centers; the log-space normalization must still give a
    # convex combination of the (zero-slope) means
    model = two_component_model(t_var=1e-6, x_means=(-1.0, 2.0))
    traj = regress(model, [0.0, 1.7, 2.0, 2.3, 4.0])
    values = traj.values[:, 0]
    assert np.isfinite(values).all()
    assert np.all((values >= -1.0) & (values <= 2.0))
    assert values[0] == -1.0 and values[-1] == 2.0


def test_single_component_regresses_a_line():
    cov = np.array([[0.5, 0.25], [0.25, 1.0]])  # slope 0.5
    model = single_component_model([1.0, 2.0], cov)
    times = np.linspace(0.0, 2.0, 9)
    traj = regress(model, times)
    assert np.allclose(traj.values[:, 0], 2.0 + 0.5 * (times - 1.0), atol=1e-12)


def test_two_component_midpoint_average():
    # at t=2 both components activate equally; slopes are zero, so the
    # regression is the plain average of the spatial means
    model = two_component_model(x_means=(0.0, 2.0))
    traj = regress(model, [0.0, 2.0, 4.0])
    assert traj.values[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_regress_identity_on_fitted_model(model, times, demos):
    traj = regress(model, times)
    assert traj.n_samples == len(times)
    assert traj.duration == pytest.approx(model.duration)
    # regression stays inside the demonstrated envelope
    lo = np.min([d.values.min(axis=0) for d in demos], axis=0) - 0.05
    hi = np.max([d.values.max(axis=0) for d in demos], axis=0) + 0.05
    assert np.all(traj.values >= lo) and np.all(traj.values <= hi)


def test_regress_times_validation():
    model = two_component_model()
    with pytest.raises(ValueError):
        regress(model, [0.0])
    with pytest.raises(ValueError):
        regress(model, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        regress(model, [0.0, np.nan])
    with pytest.raises(ValueError):
        regress(model, [0.0, 99.0])
    with pytest.raises(ValueError):
        regress(model, [-1.0, 1.0])
    with pytest.raises(TypeError):
        regress("not a model", [0.0, 1.0])


def test_regress_reanchors_offset_times():
    model = two_component_model()
    traj = regress(model, [1.0, 2.0, 3.0])
    assert traj.times[0] == 0.0
    assert np.allclose(traj.times, [0.0, 1.0, 2.0])


def component_predictions(model, times):
    """Every component's prediction m_g (t - c_g) + mu_g at every time, (n, G, D)."""
    return (model.slopes[None, :, :] * (times[:, None, None] - model.means[None, :, 0, None])
            + model.means[None, :, 1:])


def oracle_regress(model, times):
    """Reference regression: weights normalized through logsumexp, contracted
    by einsum with the full (n, G, D) array of component predictions."""
    times = np.asarray(times, dtype=float)
    t_means, t_vars = model.means[:, 0], model.covs[:, 0, 0]
    log_w = (np.log(model.priors)[None, :]
             - 0.5 * np.log(2.0 * np.pi * t_vars)[None, :]
             - (times[:, None] - t_means[None, :]) ** 2 / (2.0 * t_vars[None, :]))
    weights = np.exp(log_w - logsumexp(log_w, axis=1, keepdims=True))
    return np.einsum("ng,ngd->nd", weights, component_predictions(model, times))


def assert_matches_oracle(model, times):
    traj = regress(model, times)
    assert np.array_equal(traj.times, times - times[0])
    np.testing.assert_allclose(traj.values, oracle_regress(model, times), rtol=0.0, atol=1e-12)


def test_regress_matches_oracle_on_fitted_model(model, times):
    assert_matches_oracle(model, times)


@pytest.mark.parametrize("ablate", [False, True])
@pytest.mark.parametrize("mode", ["translational", "combined"])
def test_regress_matches_oracle_on_generalized_models(model, times, scene, endpoints,
                                                      mode, ablate):
    rng = np.random.default_rng(5)
    config = ReparamConfig(ablate_covariance=ablate)
    for _ in range(10):
        task = sample_task(scene, mode, rng, *endpoints)
        assert_matches_oracle(generalize(model, task, config), times)


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_regress_many_matches_regress_on_generalized_models(model, times, scene, endpoints,
                                                            ablate):
    """Many tasks regressed through the compiled curves, one (n, G) weight
    set for all of them, give each task's regress(generalize()) values to
    1e-12."""
    rng = np.random.default_rng(9)
    tasks = [sample_task(scene, mode, rng, *endpoints)
             for mode in ("combined", "translational") for _ in range(5)]
    config = ReparamConfig(ablate_covariance=ablate)
    want = np.stack([regress(generalize(model, task, config), times).values for task in tasks])
    assert np.abs(compiled_values(model, tasks, config, times) - want).max() <= 1e-12


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 2), n_comp=st.integers(2, 8), n_tasks=st.integers(1, 4),
       ablate=st.booleans())
def test_regress_many_matches_regress_on_random_mixtures(seed, n_comp, n_tasks, ablate):
    """On random 6-D mixtures, with or without a moving first component,
    the compiled curves give every unrepaired task's regress(generalize())
    values to 1e-12 of their scale."""
    rng, model, first, last = random_pose_mixture(seed, n_comp, static_start=seed % 2 == 0)
    config = ReparamConfig(ablate_covariance=ablate)
    times = default_times(model.duration)
    tasks, want = [], []
    for _ in range(n_tasks):
        task = pose_task(*random_endpoints(rng, first, last))
        adapted = generalize(model, task, config)
        if adapted.spd_repairs == 0:
            tasks.append(task)
            want.append(regress(adapted, times).values)
    if tasks:
        want = np.stack(want)
        got = compiled_values(model, tasks, config, times)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_regress_many_validation(model, times):
    """Regression takes only models and query times within their duration,
    and a benchmark chunk whose task regresses past a trajectory rule
    raises the error naming the sample that task raises alone."""
    with pytest.raises(TypeError, match="cannot regress a str"):
        regress("model", times)
    with pytest.raises(ValueError, match="within"):
        regress(model, np.append(times, times[-1] + 1.0))
    thin, tasks = thin_past_pi_tasks()
    thin_times = default_times(thin.duration)
    reference = regress(generalize(thin, tasks[0]), thin_times)
    chunk = _Compiled(thin, ReparamConfig(), thin_times, default_scene(), reference,
                      SuccessThresholds())
    with pytest.raises(ValueError, match="^sample 0: rotation-vector magnitude "
                                         "3.680180 rad must stay below pi$"):
        chunk.reports(tasks)


# Random mixtures stay below 6-D: a random 6-D mean path can turn a regressed
# rotation vector past pi, which Trajectory rejects.
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(1, 8), dim=st.integers(1, 5),
       thin=st.booleans(), rate=st.sampled_from([10.0, 100.0]))
def test_regress_matches_oracle_on_random_mixtures(seed, n_comp, dim, thin, rate):
    model = random_spd_mixture(np.random.default_rng(seed), n_comp, dim, thin)
    assert_matches_oracle(model, default_times(model.duration, rate))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_comp=st.integers(1, 8), dim=st.integers(1, 5),
       spread=st.sampled_from([1e-4, 1e-6, 1e-9]))
def test_regress_far_from_every_component_stays_in_prediction_range(seed, n_comp, dim,
                                                                    spread):
    """With time deviations of at most `spread` s, every query at t = 0, at a
    midpoint between centers and at the end is at least 0.1 s, or 1e3
    deviations, from every center, so every linear-space weight underflows.
    Each regressed value stays finite and within the range of the
    components' own predictions at that time."""
    model = random_spd_mixture(np.random.default_rng(seed), n_comp, dim, thin=False)
    covs = model.covs * (spread**2 / model.covs[:, 0, 0].max())
    narrow = GmmModel(model.priors, model.means, covs, model.phases)
    centers = narrow.means[:, 0]
    times = np.concatenate([[0.0], 0.5 * (centers[1:] + centers[:-1]), [narrow.duration]])
    values = regress(narrow, times).values
    preds = component_predictions(narrow, times)
    lo, hi = preds.min(axis=1), preds.max(axis=1)
    slack = 1e-12 * np.maximum(1.0, np.abs(preds).max(axis=1))
    assert np.isfinite(values).all()
    assert np.all((values >= lo - slack) & (values <= hi + slack))


def warm_and_cold(queries):
    """Each query's values with the memos the queries before it left, then
    with the memos cleared just before it, and how many of the warm queries
    took their GMR weights from the memo."""
    _WEIGHTS_MEMO.clear()
    _SOURCE_MEMO.clear()
    warm, hits = [], 0
    for query in queries:
        entry = _WEIGHTS_MEMO[0] if _WEIGHTS_MEMO else None
        warm.append(query())
        hits += _WEIGHTS_MEMO[0] is entry
    cold = []
    for query in queries:
        _WEIGHTS_MEMO.clear()
        _SOURCE_MEMO.clear()
        cold.append(query())
    return warm, cold, hits


def assert_warm_is_cold(queries, min_hits):
    warm, cold, hits = warm_and_cold(queries)
    for got, want in zip(warm, cold):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert hits >= min_hits


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 2), n_comp=st.integers(2, 8), ablate=st.booleans())
def test_memoized_queries_regress_bitwise_as_cold_ones(seed, n_comp, ablate):
    """regress(generalize()) with the weights and source terms the previous
    queries left in their memos is bitwise the result with both memos
    cleared: for models A, B, A, at two rates, for a model generalized
    twice (same priors and time centers, other means), for A with other
    priors or shifted time centers, full or ablated."""
    rng, a, first, last = random_pose_mixture(seed, n_comp)
    b = random_pose_mixture(seed + 1, n_comp)[1]
    one, two = (pose_task(*random_endpoints(rng, first, last)) for _ in range(2))
    other = pose_task(*random_endpoints(rng, b.means[0, 1:], b.means[-1, 1:]))
    config = ReparamConfig(ablate_covariance=ablate)
    fast, slow = default_times(a.duration), default_times(a.duration, 10.0)

    def query(model, task, times):
        return lambda: regress(generalize(model, task, config), times).values

    twice = generalize(a, one, config)
    assert twice.means[:, 1:].tobytes() != a.means[:, 1:].tobytes()
    reweighted = GmmModel(rng.dirichlet(np.ones(n_comp)), a.means, a.covs, a.phases)
    shifted = GmmModel(a.priors, a.means + np.array([0.05] + [0.0] * 6), a.covs, a.phases)
    assert_warm_is_cold([query(a, one, fast), query(a, two, fast),
                         query(b, other, default_times(b.duration)),
                         query(a, one, fast), query(a, two, slow), query(a, one, fast),
                         query(twice, two, fast), query(a, two, fast),
                         query(reweighted, two, fast), query(shifted, two, fast),
                         query(a, one, fast)], min_hits=3)


def test_memoized_weights_follow_a_repair_that_moves_a_time_variance():
    """A repair that moves a time variance gives that task weights of its
    own (a chunk regresses it alone); the tasks around it and the compiled
    curves still share the source's."""
    model, (own, far) = thin_repair_tasks()
    repaired = generalize(model, far)
    assert repaired.spd_repairs > 0
    assert (repaired.covs[:, 0, 0] != model.covs[:, 0, 0]).any()
    times = default_times(model.duration)
    assert_warm_is_cold([lambda: regress(model, times).values,
                         lambda: regress(generalize(model, own), times).values,
                         lambda: regress(generalize(model, far), times).values,
                         lambda: regress(generalize(model, own), times).values,
                         lambda: _curves(model, times, False),
                         lambda: regress(generalize(model, far), times).values,
                         lambda: _curves(model, times, True),
                         lambda: regress(generalize(model, own), times).values], min_hits=2)


def test_memos_hold_one_read_only_entry():
    """After 50 distinct models each memo holds one entry, and no cached
    array can be written."""
    for seed in range(50):
        rng, model, first, last = random_pose_mixture(seed, 2 + seed % 7)
        start, goal = random_endpoints(rng, first, last)
        task = TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))
        regress(generalize(model, task), default_times(model.duration))
        assert len(_WEIGHTS_MEMO) == len(_SOURCE_MEMO) == 1
    for memo in (_WEIGHTS_MEMO, _SOURCE_MEMO):
        for array in memo[0][1]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
