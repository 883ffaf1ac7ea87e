import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmmgen import bench
from gmmgen.bench import (SUMMARY_COLUMNS, SUMMARY_METRICS, _combined, _Compiled, default_times,
                          evaluate_trajectory, model_endpoints, run_benchmark, summarize,
                          summary_csv_lines, write_summary_csv, write_trials_jsonl)
from gmmgen.data import PhaseSchedule, Pose, TaskSpec, _rotvec_angles, resample
from gmmgen.gmr import _grid_terms, regress
from gmmgen.metrics import (EvalReport, FailureReason, _targets, average_jerk, boundary_error,
                            boundary_errors, phase_deviation, shape_deviation)
from gmmgen.model import GmmModel
from gmmgen.reparam import ReparamConfig, generalize
from gmmgen.scene import (SAMPLE_ATTEMPTS, SamplingError, SuccessThresholds, _verdicts,
                          collision_mask, sample_task, sample_tasks, trajectory_success)

from helpers import (assert_generalize_composes, compiled_values, thin_past_pi_tasks,
                     thin_repair_tasks)

# A chunk scores compiled curves (bench._Compiled), so its records match the
# one-trial evaluation to rounding: every metric within these tolerances,
# and the success flag and failure reason exactly.
RTOL, ATOL = 1e-9, 1e-12


def assert_report_close(got: EvalReport, want: EvalReport) -> None:
    assert (got.success, got.failure_reason) == (want.success, want.failure_reason)
    for field in SUMMARY_METRICS.values():
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=RTOL, abs=ATOL), field


def test_summary_columns_are_frozen():
    assert SUMMARY_COLUMNS == (
        "method", "success_rate",
        "start_err_mm", "start_err_deg", "goal_err_mm", "goal_err_deg",
        "grasp_dev_mm", "grasp_dev_deg", "release_dev_mm", "release_dev_deg",
        "shape_dev", "jerk_lin", "jerk_ang",
    )


def test_default_times_grid():
    times = default_times(7.0)
    assert len(times) == 701
    assert times[0] == 0.0 and times[-1] == 7.0
    assert np.allclose(np.diff(times), 0.01)
    for rate in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            default_times(7.0, rate)


def test_model_endpoints_match_components(model):
    start, goal = model_endpoints(model)
    assert np.array_equal(start.as_vector(), model.means[0, 1:])
    assert np.array_equal(goal.as_vector(), model.means[-1, 1:])


def test_evaluate_identity_regression(model, scene, times, corpus):
    _, task = corpus
    traj = regress(model, times)
    report = evaluate_trajectory(traj, TaskSpec(*model_endpoints(model)), scene,
                                 traj, model.phases)
    assert report.success
    assert report.shape_deviation < 1e-12  # compared against itself
    # the mixture blends components, so endpoints land close but not exact
    assert report.start_error_mm < 2.0 and report.goal_error_mm < 2.0
    assert report.start_error_deg < 0.5 and report.goal_error_deg < 0.5


def oracle_trajectory_success(traj, scene, task, thresholds):
    """The success verdict in its former two-call form: it computed the
    boundary errors itself instead of reading the report's."""
    sampled = resample(traj, thresholds.collision_samples)
    if collision_mask(sampled.positions(), sampled.orientations(), scene.box_dims,
                      scene.slabs).any():
        return False, FailureReason.COLLISION
    (start_mm, start_deg), (goal_mm, goal_deg) = boundary_error(traj, task)
    if (start_mm > thresholds.max_boundary_pos_mm
            or goal_mm > thresholds.max_boundary_pos_mm
            or start_deg > thresholds.max_boundary_rot_deg
            or goal_deg > thresholds.max_boundary_rot_deg):
        return False, FailureReason.BOUNDARY
    return True, FailureReason.NONE


def oracle_evaluate(traj, task, scene, reference, phases, thresholds) -> EvalReport:
    (start_mm, start_deg), (goal_mm, goal_deg) = boundary_error(traj, task)
    (grasp_mm, grasp_deg), (release_mm, release_deg) = phase_deviation(traj, phases)
    jerk_lin, jerk_ang = average_jerk(traj)
    success, reason = oracle_trajectory_success(traj, scene, task, thresholds)
    return EvalReport(success, reason, start_mm, start_deg, goal_mm, goal_deg,
                      grasp_mm, grasp_deg, release_mm, release_deg,
                      shape_deviation(traj, reference), jerk_lin, jerk_ang)


@pytest.mark.parametrize("mode", ["combined", "translational"])
@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
@pytest.mark.parametrize("thresholds", [SuccessThresholds(),
                                        SuccessThresholds(max_boundary_pos_mm=0.5)],
                         ids=["default", "tight"])
def test_evaluate_trajectory_matches_two_call_oracle(model, scene, times, monkeypatch,
                                                     mode, ablate, thresholds):
    """evaluate_trajectory() equals the former two-call evaluation bit for
    bit, and every benchmark report matches it to rounding (a chunk scores
    compiled curves).  Each chunk's (T, 2, 2) boundary errors are computed
    once: the one array reaches both the verdicts and the report rows.  The
    30 trials span two chunks."""
    computed, judged = [], []

    def counted_boundary_errors(ends, targets):
        out = boundary_errors(ends, targets)
        assert out.shape == (len(ends), 2, 2) and targets.shape == ends.shape == (len(ends), 2, 6)
        computed.append(out)
        return out

    def recorded_verdicts(sampled, scene, boundaries, thresholds):
        judged.append(boundaries)
        return _verdicts(sampled, scene, boundaries, thresholds)

    monkeypatch.setattr(bench, "boundary_errors", counted_boundary_errors)
    monkeypatch.setattr(bench, "_verdicts", recorded_verdicts)
    config = ReparamConfig(ablate_covariance=ablate)
    assert 30 > bench.BATCH_TRIALS
    result = run_benchmark(model, scene, mode, trials=30, seed=11, config=config,
                           thresholds=thresholds)
    monkeypatch.undo()
    assert len(computed) == len(judged) == 2
    assert all(verdict_input is boundaries for boundaries, verdict_input in zip(computed, judged))
    for record, boundary in zip(result.trials, np.concatenate(computed)):
        report = record.report
        assert [report.start_error_mm, report.start_error_deg,
                report.goal_error_mm, report.goal_error_deg] == boundary.reshape(4).tolist()
    reference = regress(model, times)
    base_start, base_goal = model_endpoints(model)
    for record in result.trials:
        rng = np.random.default_rng([11, record.index])
        task = sample_task(scene, mode, rng, base_start, base_goal)
        assert task.to_dict() == record.task.to_dict()
        traj = regress(generalize(model, task, config), times)
        want = oracle_evaluate(traj, task, scene, reference, model.phases, thresholds)
        assert evaluate_trajectory(traj, task, scene, reference, model.phases,
                                   thresholds) == want
        assert trajectory_success(traj, scene, task, thresholds) == (want.success,
                                                                     want.failure_reason)
        assert_report_close(record.report, want)
    reasons = {record.report.failure_reason for record in result.trials}
    assert FailureReason.COLLISION in reasons
    if thresholds.max_boundary_pos_mm < 10.0:
        assert FailureReason.BOUNDARY in reasons


def assert_records_match_one_trial_evaluation(result, model, scene, config, times,
                                              reference):
    """Every record matches, to rounding, evaluate_trajectory() of
    regress(generalize(...)) for its task; returns those one-trial reports."""
    wants = []
    for record in result.trials:
        traj = regress(generalize(model, record.task, config), times)
        wants.append(evaluate_trajectory(traj, record.task, scene, reference, model.phases))
        assert_report_close(record.report, wants[-1])
    return wants


@pytest.mark.parametrize("mode", ["combined", "translational"])
@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_benchmark_records_match_one_trial_evaluation(model, scene, times, mode, ablate):
    """The chunk pipeline, scoring each task on compiled curves, scores
    every trial as the one-trial functions do, to rounding, with the same
    success flag and failure reason in all 200 trials (13 chunks)."""
    config = ReparamConfig(ablate_covariance=ablate)
    result = run_benchmark(model, scene, mode, trials=200, seed=4, config=config)
    assert_records_match_one_trial_evaluation(result, model, scene, config, times,
                                              regress(model, times))


def test_benchmark_chunk_mixing_repaired_and_unrepaired_tasks(scene, monkeypatch):
    """A chunk where an SPD repair moved a time variance of one task only:
    the repaired task goes through the one-trial evaluation, so its record
    is that evaluation bit for bit (json.dumps writes the shortest repr of
    each float, and keeps the sign of a zero), and the other task's record
    matches it to rounding."""
    model, tasks = thin_repair_tasks()
    monkeypatch.setattr(bench, "sample_tasks", lambda scene, mode, rngs, *bases: tasks)
    result = run_benchmark(model, scene, "combined", trials=len(tasks), seed=0)
    monkeypatch.undo()
    adapted = [generalize(model, task) for task in tasks]
    assert [m.spd_repairs > 0 for m in adapted] == [False, True]
    assert not np.array_equal(adapted[0].covs[:, 0, 0], adapted[1].covs[:, 0, 0])
    assert [record.task for record in result.trials] == tasks
    times = default_times(model.duration)
    wants = assert_records_match_one_trial_evaluation(result, model, scene, ReparamConfig(),
                                                      times, regress(model, times))
    assert json.dumps(result.trials[1].report.to_dict()) == json.dumps(wants[1].to_dict())


def x_heavy_model(t_var, slope, shape):
    """A 3-component 6-D source whose components 1-2 have time variance
    t_var, and slope and spatial shape on x; component 0 is small and static."""
    covs = np.tile(0.01 * np.eye(7), (3, 1, 1))
    covs[:, 0, 0] = 1.0
    covs[1:, 0, 1] = covs[1:, 1, 0] = slope
    covs[1:, 1, 1] = shape
    covs *= np.array([0.1, t_var, t_var])[:, None, None]
    means = np.zeros((3, 7))
    means[:, 0] = [0.5, 1.5, 2.5]
    means[:, 1] = [0.0, 0.5, 1.0]
    return GmmModel(np.full(3, 1.0 / 3.0), means, covs, PhaseSchedule(1.0, 2.0, 3.0))


def far_middle_model():
    """x_heavy_model(0.1, 0, 0.01) with component 1's x mean at 1e306, far
    outside the x span [0, 1], and its prior at 1e-300, so that its weight
    keeps every regressed curve finite."""
    base = x_heavy_model(0.1, 0.0, 0.01)
    means = base.means.copy()
    means[1, 1] = 1e306
    return GmmModel(np.array([0.5, 1e-300, 0.5]), means, base.covs, base.phases)


def x_task(model, start_x, goal_x):
    """The source's first mean pose with x at start_x, to that pose with x at
    goal_x; x_heavy_model's x span is 1, so goal_x - start_x scales it."""
    start = model.means[0, 1:].copy()
    start[0] = start_x
    goal = start.copy()
    goal[0] = goal_x
    return TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))


class TaskPools(dict):
    """(source model, tasks) by pool name, with a repr short enough for
    hypothesis to print beside a failing example."""

    def __repr__(self):
        return f"TaskPools({list(self)})"


@pytest.fixture(scope="module")
def chunk_pools(model, scene, endpoints):
    """Per source model, the tasks a chunk draws from.

    fitted: tasks sampled as the benchmark samples them, none repaired.
    thin: seed 738's thin mixture, its own endpoints and the far task, whose
    repairs move 2 time variances by about 1e-6.  overflow: slope 1e152 and
    shape 2e304 on x, where a goal scaling the x span by 1000 overflows
    outer(moved) to +inf that Cholesky accepts with no repair, and where
    endpoints at -1e308 and 1e308 give non-finite means.  half-max: time
    variance 7e307, where doubling the x span gives a finite cross
    covariance above half the largest float, which GmmModel's symmetrize
    would turn into inf, so GmmModel rejects it.  far-middle: a goal 1000
    x spans from the start overflows the far middle mean, while the
    compiled curves' reach stays finite; only the means' own finiteness
    routes that task.  The other x-span tasks scale the span by 0.5 to 2
    and regress.
    """
    rng = np.random.default_rng(23)
    sampled = [sample_task(scene, mode, rng, *endpoints)
               for mode in ("combined", "translational") for _ in range(4)]
    overflow = x_heavy_model(0.1, 1e152, 2e304)
    half_max = x_heavy_model(7e307, 0.7, 0.491)
    far_middle = far_middle_model()
    pools = TaskPools({
        "fitted": (model, sampled),
        "thin": thin_repair_tasks(),
        "overflow": (overflow, [x_task(overflow, 0.0, x) for x in (0.5, 1.0, 2.0, 1000.0)]
                     + [x_task(overflow, -1e308, 1e308)]),
        "half-max": (half_max, [x_task(half_max, 0.0, x) for x in (0.5, 1.2, 2.0)]),
        "far-middle": (far_middle, [x_task(far_middle, 0.0, x) for x in (0.5, 1000.0)]),
    })
    pools.scene = scene
    # the fitted source's regression: the x-heavy sources regress to a static path
    pools.reference = regress(model, default_times(model.duration))
    return pools


def test_generalize_rejects_a_covariance_entry_above_half_the_largest_float(chunk_pools):
    """On the half-max source, the tasks that scale the x span by 0.5 and
    1.2 generalize; doubling it gives a cross covariance that GmmModel's
    symmetrize would turn into inf, so generalize names its component."""
    source, tasks = chunk_pools["half-max"]
    for task in tasks[:2]:
        assert np.isfinite(generalize(source, task).covs).all()
    with pytest.raises(ValueError, match="^component 1: parameters must be finite$"):
        generalize(source, tasks[2])


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_generalize_is_the_model_of_reparam_on_every_pool(chunk_pools, ablate):
    """Every pool's task generalizes bitwise to, or raises the error of, the
    model built from the per-component oracles: the thin far
    task's clamps and repair count, and the x-heavy sources' overflowing,
    non-finite and above-half-max stacks included."""
    config = ReparamConfig(ablate_covariance=ablate)
    got = {(name, i): assert_generalize_composes(source, task, config)
           for name, (source, tasks) in chunk_pools.items() for i, task in enumerate(tasks)}
    finite = (ValueError, "component 1: parameters must be finite")
    if ablate:
        assert [key for key, out in got.items() if out == finite] == [("overflow", 4),
                                                                      ("far-middle", 1)]
    else:
        assert got["thin", 1][1] == 2
        assert (got["overflow", 3] == got["half-max", 2] == got["overflow", 4]
                == got["far-middle", 1] == finite)


def one_task_outcome(model, task, config, times, scene, reference):
    """(routed, outcome): whether a chunk routes the task to the one-trial
    path, as generalize() raises or repairs for it, and its one-trial
    EvalReport or its ValueError message."""
    try:
        adapted = generalize(model, task, config)
    except ValueError as exc:
        return True, str(exc)
    try:
        traj = regress(adapted, times)
        return adapted.spd_repairs > 0, evaluate_trajectory(traj, task, scene, reference,
                                                            model.phases)
    except ValueError as exc:
        return adapted.spd_repairs > 0, str(exc)


def compiled_chunk(model, config, pools):
    """The _Compiled scorer of a benchmark run on model in the pools' scene,
    against their reference path, at the default thresholds."""
    return _Compiled(model, config, default_times(model.duration), pools.scene, pools.reference,
                     SuccessThresholds())


@settings(max_examples=120)
@given(pool=st.sampled_from(["fitted", "thin", "overflow", "half-max"]), ablate=st.booleans(),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=6))
def test_chunk_stacks_only_tasks_the_model_stores_unchanged(chunk_pools, pool, ablate, picks):
    """A chunk of 1-6 tasks in any order gives each task's one-trial
    evaluation, to rounding for a compiled task and bit for bit for a
    routed one, or raises the message of the first failing routed task,
    named by its trial, or else, when scoring the compiled tasks fails, of
    the first compiled task that fails alone, named likewise.  The
    one-trial path runs once for every routed task, a repaired one or one
    whose components GmmModel rejects (+inf or non-finite entries, an
    entry it would symmetrize to inf), in order up to the first that
    raises, and after a scoring failure for the compiled tasks in order up
    to the first that raises."""
    source, pool_tasks = chunk_pools[pool]
    tasks = [pool_tasks[i % len(pool_tasks)] for i in picks]
    config = ReparamConfig(ablate_covariance=ablate)
    calls = []

    def counted_generalize(*args):
        calls.append(args[1])
        return generalize(*args)

    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        chunk = compiled_chunk(source, config, chunk_pools)
        outcomes = [one_task_outcome(source, task, config, chunk.times, chunk.scene,
                                     chunk.reference) for task in tasks]
        patch.setattr(bench, "generalize", counted_generalize)
        try:
            got, message = chunk.reports(tasks), None
        except ValueError as exc:
            got, message = None, str(exc)
    failed = [(routed, i) for i, (routed, outcome) in enumerate(outcomes)
              if isinstance(outcome, str)]
    routed_at = [i for i, (is_routed, _) in enumerate(outcomes) if is_routed]
    rerun = []  # the compiled tasks a scoring failure runs alone
    if message is None:
        assert not failed
        for report, (is_routed, want) in zip(got, outcomes):
            if is_routed:
                assert report == want
            assert_report_close(report, want)
    elif any(routed for routed, _ in failed):
        first = next(i for routed, i in failed if routed)
        assert message == f"trial {first}: {outcomes[first][1]}"
    else:
        first = failed[0][1]
        assert message == f"trial {first}: {outcomes[first][1]}"
        rerun = [i for i in range(len(tasks)) if i not in routed_at]

    def up_to_first_failure(indices):
        run = []
        for i in indices:
            run.append(tasks[i])
            if isinstance(outcomes[i][1], str):
                break
        return run

    assert calls == up_to_first_failure(routed_at) + up_to_first_failure(rerun)


def test_benchmark_names_the_first_compiled_trial_that_fails_alone(chunk_pools, monkeypatch):
    """When scoring a chunk's compiled tasks fails, the error names the
    first of them, in trial order, that fails alone, with its own message:
    on the x-heavy source a task with no x span regresses to a static
    path, whose shape deviation is undefined, so of the second chunk's
    tasks [0.5 span, no span, 0.5 span, no span] at trials 16-19 trial 17
    is named, after trials 16 and 17 ran alone once each.  On the half-max
    source every task regresses to a static path, so a chunk at trials
    16-17 names trial 16."""
    source = x_heavy_model(0.1, 0.0, 0.01)
    spanned, flat = x_task(source, 0.0, 0.5), x_task(source, 0.3, 0.3)
    drawn = [spanned] * 17 + [flat, spanned, flat]
    monkeypatch.setattr(bench, "sample_tasks", lambda scene, mode, rngs, *bases: drawn)
    calls = []
    monkeypatch.setattr(bench, "generalize", lambda *args: calls.append(args[1])
                        or generalize(*args))
    message = "shape deviation is undefined for a degenerate point set"
    with pytest.raises(ValueError, match=f"^trial 17: {message}$"):
        run_benchmark(source, chunk_pools.scene, "combined", trials=len(drawn), seed=0,
                      reference=chunk_pools.reference)
    assert calls == [spanned, flat]

    half_max, (half_span, *_) = chunk_pools["half-max"]
    chunk = compiled_chunk(half_max, ReparamConfig(), chunk_pools)
    with pytest.raises(ValueError, match=f"^trial 16: {message}$"):
        chunk.reports([half_span, half_span], 16)


def test_regress_weighs_a_time_variance_whose_normalizer_overflows():
    """The half-max source's components 1-2 have time variance 7e307, where
    2 pi t_var overflows but its log, about 710.68, is finite: regress
    prints no warning (pytest turns one into an error) and gives those
    components positive activations."""
    source = x_heavy_model(7e307, 0.7, 0.491)  # fresh: its grid cache misses
    times = default_times(source.duration)
    assert np.isfinite(regress(source, times).values).all()
    assert (_grid_terms(source, times).act[:, 1:] > 0.0).all()


@pytest.mark.parametrize("mode", ["combined", "translational"])
@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_compiled_curves_match_regress_generalize(model, scene, chunk_pools, monkeypatch, mode,
                                                  ablate):
    """On the fitted source, a + b * start + c * goal of the compiled curves
    is regress(generalize()).values to 1e-12 for 40 sampled tasks.  A chunk
    routes thin_repair_tasks()' repaired task to the one-trial path and
    compiles the other, routes a task whose combination could overflow and
    one whose rotation rows pass pi, naming each one's trial with the
    message it raises alone, and a benchmark over the overflow and
    half-max pools raises the message the failing task raises alone, and
    so does one over the far-middle pool, whose failing task only the
    means' finiteness routes."""
    config = ReparamConfig(ablate_covariance=ablate)
    times = default_times(model.duration)
    tasks = sample_tasks(scene, mode, [np.random.default_rng([29, i]) for i in range(40)],
                         *model_endpoints(model))
    want = np.stack([regress(generalize(model, task, config), times).values for task in tasks])
    assert np.abs(compiled_values(model, tasks, config, times) - want).max() <= 1e-12

    thin, (own, far) = thin_repair_tasks()
    calls = []
    monkeypatch.setattr(bench, "generalize", lambda *args: calls.append(args[1])
                        or generalize(*args))
    compiled_chunk(thin, config, chunk_pools).reports([own, far, own])
    assert calls == ([] if ablate else [far])

    # unrepaired tasks routed all the same, so the chunk raises the message
    # each raises alone: one whose a + b * start + c * goal could overflow
    # (its means are finite), and one whose rotation rows pass pi mid-way
    for column, value, message in ((0, 1e308, "sample 131: non-finite value"),
                                   (3, 3.14, "sample 235: rotation-vector magnitude 3.141674 "
                                             "rad must stay below pi")):
        start, goal = (pose.as_vector() for pose in model_endpoints(model))
        start[column] = goal[column] = value
        odd = TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as alone:
                regress(generalize(model, odd, config), times)
            calls.clear()
            with pytest.raises(ValueError) as chunked:
                compiled_chunk(model, config, chunk_pools).reports([tasks[0], odd])
        assert str(alone.value) == message
        assert str(chunked.value) == f"trial 1: {message}"
        assert calls == [odd]

    # without the covariance update only the non-finite means fail
    for pool, bad in ((("overflow", 4), ("far-middle", 1)) if ablate
                      else (("overflow", 3), ("half-max", 2), ("far-middle", 1))):
        source, pool_tasks = chunk_pools[pool]
        with pytest.raises(ValueError) as alone, np.errstate(over="ignore", invalid="ignore"):
            regress(generalize(source, pool_tasks[bad], config), default_times(source.duration))
        drawn = iter(pool_tasks[:bad + 1])
        monkeypatch.setattr(bench, "sample_tasks",
                            lambda scene, mode, rngs, *bases: [next(drawn) for _ in rngs])
        with pytest.raises(ValueError) as chunked, np.errstate(over="ignore", invalid="ignore"):
            run_benchmark(source, scene, mode, trials=bad + 1, seed=0, config=config,
                          reference=regress(model, times))
        assert str(chunked.value) == f"trial {bad}: {alone.value}"


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_chunk_checks_rotation_rows_only_where_the_reach_bound_reaches_pi(model, chunk_pools,
                                                                          monkeypatch, ablate):
    """The reach bound certifies every sampled task of the fitted pool, so a
    chunk of them combines no rotation rows.  A task turned 2 rad about x at
    both ends has a bound above pi but rows near 2 rad: its rows alone are
    combined and checked, and it stays compiled, its report matching the
    one-trial evaluation to rounding.  (A task whose rows reach pi is
    routed: test_compiled_curves_match_regress_generalize.)"""
    config = ReparamConfig(ablate_covariance=ablate)
    chunk = compiled_chunk(model, config, chunk_pools)
    start, goal = (pose.as_vector() for pose in model_endpoints(model))
    start[3:] = goal[3:] = [2.0, 0.0, 0.0]
    turned = TaskSpec(Pose.from_vector(start), Pose.from_vector(goal))
    reach = chunk.reach[0] + chunk.reach[1] * np.abs(start) + chunk.reach[2] * np.abs(goal)
    assert _rotvec_angles(reach[3:]) * (1.0 + 1e-9) >= np.pi
    rows = compiled_values(model, [turned], config, chunk.times)[0, :, 3:]
    assert _rotvec_angles(rows).max() < 3.0

    combined, calls = [], []
    monkeypatch.setattr(bench, "_combined", lambda mapped, coefs: combined.append(
        (mapped is chunk.rotations, coefs.shape[1])) or _combined(mapped, coefs))
    monkeypatch.setattr(bench, "generalize", lambda *args: calls.append(args[1])
                        or generalize(*args))
    sampled = chunk_pools["fitted"][1]
    chunk.reports(sampled)
    assert not any(rot for rot, _ in combined)
    combined.clear()
    reports = chunk.reports([*sampled[:3], turned])
    assert [entry for entry in combined if entry[0]] == [(True, 1)] and calls == []
    want = one_task_outcome(model, turned, config, chunk.times, chunk.scene, chunk.reference)
    assert want[0] is False
    assert_report_close(reports[-1], want[1])


@pytest.mark.parametrize("mode", ["combined", "translational"])
@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_benchmark_chunk_factors_adapted_covariances_once(model, scene, monkeypatch, mode,
                                                          ablate):
    """On the fitted model, 200 sampled trials route no task to
    regress(generalize()); each full chunk makes one Cholesky call, reparam's
    over its adapted covariances, and an ablated chunk none."""
    counts = {"cholesky": 0, "generalize": 0}
    cholesky = np.linalg.cholesky

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", cholesky))
    monkeypatch.setattr(bench, "generalize", counted("generalize", generalize))
    result = run_benchmark(model, scene, mode, trials=200, seed=11,
                           config=ReparamConfig(ablate_covariance=ablate))
    monkeypatch.undo()
    assert len(result.trials) == 200
    chunks = -(-200 // bench.BATCH_TRIALS)
    assert counts == {"cholesky": 0 if ablate else chunks, "generalize": 0}


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_benchmark_checks_its_tasks_and_reports_once_per_batch(model, scene, monkeypatch,
                                                                ablate):
    """A 40-trial run checks its tasks and reports as batches: no Pose,
    TaskSpec or EvalReport constructor runs its checks, except the two
    Poses of the model's endpoints that anchor the sampler."""
    checked = []
    for cls in (Pose, TaskSpec, EvalReport):
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=cls.__post_init__: (
            checked.append(type(self).__name__), check(self))[1])
    result = run_benchmark(model, scene, "combined", trials=40, seed=3,
                           config=ReparamConfig(ablate_covariance=ablate))
    assert len(result.trials) == 40 and checked == ["Pose", "Pose"]


def test_benchmark_chunk_turning_past_pi_raises(scene, monkeypatch):
    """A chunk whose regression turns a rotation vector past pi is rejected
    with the message regress() gives for that task on its own, under the
    index of its trial, in the first chunk and in the second."""
    model, (good_task, past_pi) = thin_past_pi_tasks()
    times = default_times(model.duration)
    with pytest.raises(ValueError, match="^sample 0: rotation-vector magnitude 3.680180 rad"):
        regress(generalize(model, past_pi), times)
    for trials, bad in ((2, 1), (20, 17)):
        drawn = iter([past_pi if i == bad else good_task for i in range(trials)])
        monkeypatch.setattr(bench, "sample_tasks",
                            lambda scene, mode, rngs, *bases: [next(drawn) for _ in rngs])
        with pytest.raises(ValueError, match=f"^trial {bad}: sample 0: rotation-vector "
                                             "magnitude 3.680180 rad must stay below pi$"):
            run_benchmark(model, scene, "combined", trials=trials, seed=0,
                          reference=regress(generalize(model, good_task), times))


def test_benchmark_names_a_routed_trial_where_it_fails_and_runs_it_once(scene, monkeypatch):
    """A routed task whose scoring fails raises under its own trial index,
    here trial 17 in the second chunk, and every routed task up to it goes
    through generalize once: no trial is run a second time to name it."""
    model, (own, far) = thin_repair_tasks()
    failing = TaskSpec(far.start, far.goal)  # routed as far is, told apart by identity
    tasks = [far if i == 1 else failing if i == 17 else own for i in range(20)]
    calls = []

    def evaluated(traj, task, *args):
        if task is failing:
            raise ValueError("boom")
        return evaluate_trajectory(traj, task, *args)

    monkeypatch.setattr(bench, "sample_tasks", lambda scene, mode, rngs, *bases: tasks)
    monkeypatch.setattr(bench, "evaluate_trajectory", evaluated)
    monkeypatch.setattr(bench, "generalize", lambda *args: calls.append(args[1])
                        or generalize(*args))
    with pytest.raises(ValueError, match="^trial 17: boom$"):
        run_benchmark(model, scene, "combined", trials=len(tasks), seed=0)
    assert [task is failing for task in calls] == [False, True]


def test_benchmark_names_the_trial_the_sampler_could_not_place(model, scene, monkeypatch):
    """All trials are drawn in one sample_tasks pass, so the generator the
    sampler names is the trial."""
    drawn = []

    def exhausted(scene, mode, rngs, *bases):
        drawn.append(len(rngs))
        raise SamplingError(21, "goal")

    monkeypatch.setattr(bench, "sample_tasks", exhausted)
    with pytest.raises(ValueError, match=f"^trial 21, goal: no collision-free rest pose found "
                                         f"in {SAMPLE_ATTEMPTS} draws$"):
        run_benchmark(model, scene, "combined", trials=40, seed=0)
    assert drawn == [40]


def test_benchmark_chunk_failure_without_a_failing_task_reraises(model, scene, monkeypatch):
    """When no task fails on its own, the chunk's own error is raised."""
    def failing(*args):
        raise ValueError("sample 9: non-finite value")

    monkeypatch.setattr(bench._Compiled, "reports", failing)
    with pytest.raises(ValueError, match="^sample 9: non-finite value$"):
        run_benchmark(model, scene, "combined", trials=4, seed=0)


@pytest.mark.parametrize("method", ["", "full,v2", 'a"b', "a\nb", "a\rb", 7])
def test_benchmark_rejects_a_method_label_that_breaks_the_csv(model, scene, method):
    with pytest.raises(ValueError, match="^method must be a non-empty string"):
        run_benchmark(model, scene, "combined", trials=1, seed=0, method=method)


@pytest.mark.parametrize("bad", ["model.json", None])
def test_run_benchmark_rejects_a_model_of_another_type(scene, bad):
    with pytest.raises(TypeError, match=f"^model must be a GmmModel, got {type(bad).__name__}$"):
        run_benchmark(bad, scene, "combined", trials=1, seed=0)


@pytest.mark.parametrize("ablate", [False, True])
def test_run_benchmark_rejects_a_one_component_model(model, scene, monkeypatch, ablate):
    """A model generalize rejects is rejected with generalize's message for
    both methods, once, before any task is drawn."""
    single = GmmModel([1.0], model.means[:1], model.covs[:1], model.phases)
    assert single.dim == 6
    drawn = []
    monkeypatch.setattr(bench, "sample_tasks", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="^mean reparameterization needs at least "
                                         "two components$"):
        run_benchmark(single, scene, "combined", trials=3, seed=0,
                      config=ReparamConfig(ablate_covariance=ablate))
    assert drawn == []


def test_summarize_hand_check(model, scene):
    result = run_benchmark(model, scene, "translational", trials=4, seed=5)
    reports = [rec.report for rec in result.trials]
    expected_rate = 100.0 * sum(r.success for r in reports) / 4.0
    assert result.summary["success_rate"] == expected_rate
    assert result.summary["method"] == "full"
    assert result.summary["goal_err_mm"] == pytest.approx(
        np.mean([r.goal_error_mm for r in reports]))
    assert result.summary["jerk_lin"] == pytest.approx(
        np.mean([r.jerk_linear for r in reports]))
    assert set(result.summary) == set(SUMMARY_COLUMNS)


def _random_reports(rng, count):
    """count EvalReports with random verdicts and metric values from 1e-6 to 1e6."""
    reports = []
    for _ in range(count):
        success = bool(rng.integers(2))
        reason = FailureReason.NONE if success else FailureReason.COLLISION
        values = rng.uniform(0.0, 1.0, 11) * 10.0 ** rng.integers(-6, 7, 11)
        reports.append(EvalReport(success, reason, *values.tolist()))
    return reports


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 300))
@example(seed=0, trials=1)
@example(seed=1, trials=33)
def test_summarize_takes_each_column_mean_as_np_mean_bitwise(seed, trials):
    """summarize's one (11, T) reduction gives bitwise the np.mean of each
    column's list, and success_rate stays the sum's percentage."""
    reports = _random_reports(np.random.default_rng(seed), trials)
    records = [bench.TrialRecord(i, None, report) for i, report in enumerate(reports)]
    summary = summarize(records, "full")
    assert summary["success_rate"] == 100.0 * sum(r.success for r in reports) / trials
    for column, field in SUMMARY_METRICS.items():
        want = float(np.mean([getattr(r, field) for r in reports]))
        assert type(summary[column]) is float and summary[column].hex() == want.hex(), column


def _report_bytes(reports) -> bytes:
    return np.array([[getattr(r, f) for f in SUMMARY_METRICS.values()] for r in reports]).tobytes()


def test_scores_read_a_generator_of_features_as_a_tuple(model, scene, chunk_pools):
    """A chunk streams its combined features to _scores through a generator;
    the same features as a tuple, as evaluate_trajectory passes them, give
    bitwise the same reports."""
    tasks = sample_tasks(scene, "combined", [np.random.default_rng([9, i]) for i in range(16)],
                         *model_endpoints(model))
    for ablate in (False, True):
        chunk = compiled_chunk(model, ReparamConfig(ablate_covariance=ablate), chunk_pools)
        coefs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "_combined", lambda mapped, c: coefs.append(c)
                          or _combined(mapped, c))
            streamed = chunk.reports(tasks)
        assert len(coefs) == len(chunk.features) and len({id(c) for c in coefs}) == 1
        features = tuple(_combined(f, coefs[0]) for f in chunk.features)
        listed = bench._scores(features, _targets(tasks), chunk.scene, chunk.shape,
                               chunk.thresholds)
        assert [(r.success, r.failure_reason) for r in streamed] == \
            [(r.success, r.failure_reason) for r in listed]
        assert _report_bytes(streamed) == _report_bytes(listed)


@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_warm_chunk_peak_memory_stays_under_one_megabyte(model, scene, chunk_pools, ablate):
    """A warm 16-task chunk holds one combined feature at a time and its
    kernels work in place: its tracemalloc peak stays under 1 MB (about
    0.7 MB; about 1.6 MB when every feature was combined up front)."""
    tasks = sample_tasks(scene, "combined",
                         [np.random.default_rng([0, i]) for i in range(bench.BATCH_TRIALS)],
                         *model_endpoints(model))
    chunk = compiled_chunk(model, ReparamConfig(ablate_covariance=ablate), chunk_pools)
    chunk.reports(tasks)
    tracemalloc.start()
    try:
        chunk.reports(tasks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_benchmark_deterministic_and_order_free(model, scene):
    # a longer run reproduces the shared prefix: trials are index-seeded, and
    # a record does not depend on its chunk (the 20-trial run ends inside
    # one; the 40-trial run spans more than two)
    assert 20 % bench.BATCH_TRIALS != 0 and 40 > 2 * bench.BATCH_TRIALS
    for ablate in (False, True):
        config = ReparamConfig(ablate_covariance=ablate)
        a = run_benchmark(model, scene, "combined", trials=20, seed=11, config=config)
        b = run_benchmark(model, scene, "combined", trials=20, seed=11, config=config)
        assert summary_csv_lines(a.summary) == summary_csv_lines(b.summary)
        for ra, rb in zip(a.trials, b.trials):
            assert np.array_equal(ra.task.start_vector(), rb.task.start_vector())
            assert ra.report == rb.report
        c = run_benchmark(model, scene, "combined", trials=40, seed=11, config=config)
        assert [r.index for r in c.trials] == list(range(40))
        for ra, rc in zip(a.trials, c.trials[:20]):
            assert ra.task.to_dict() == rc.task.to_dict()
            assert ra.report == rc.report


def test_benchmark_ablated_method_label(model, scene):
    result = run_benchmark(model, scene, "translational", trials=2, seed=3,
                           config=ReparamConfig(ablate_covariance=True))
    assert result.method == "ablated"
    assert result.summary["method"] == "ablated"


def test_benchmark_validation(model, scene):
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        run_benchmark(model, scene, "combined", trials=0, seed=0)
    for trials in (True, 2.0, "3", None):
        with pytest.raises(ValueError, match="^trials must be an integer, got "):
            run_benchmark(model, scene, "combined", trials=trials, seed=0)
    with pytest.raises(ValueError, match="^seed must be at least 0$"):
        run_benchmark(model, scene, "combined", trials=1, seed=-1)
    for seed in (False, 1.5, "1"):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            run_benchmark(model, scene, "combined", trials=1, seed=seed)
    with pytest.raises(ValueError, match="unknown variation"):
        run_benchmark(model, scene, "sideways", trials=1, seed=0)
    # numpy integers are integers
    assert len(run_benchmark(model, scene, "combined", trials=np.int64(2),
                             seed=np.uint8(3)).trials) == 2


def test_summary_csv_and_trials_jsonl_format(model, scene, tmp_path):
    result = run_benchmark(model, scene, "translational", trials=3, seed=8)
    csv_path = tmp_path / "summary.csv"
    write_summary_csv(result.summary, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "full"
    assert float(fields[1]) == result.summary["success_rate"]

    jsonl_path = tmp_path / "trials.jsonl"
    write_trials_jsonl(result, jsonl_path)
    rows = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert [row["trial"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert row["mode"] == "translational" and row["seed"] == 8
        assert len(row["task"]["start"]) == 6 and len(row["task"]["goal"]) == 6
        report = row["report"]
        assert set(report) == {
            "success", "failure_reason", "start_error_mm", "start_error_deg",
            "goal_error_mm", "goal_error_deg", "grasp_dev_mm", "grasp_dev_deg",
            "release_dev_mm", "release_dev_deg", "shape_deviation",
            "jerk_linear", "jerk_angular",
        }
        assert report["failure_reason"] in ("none", "collision", "boundary")
