import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmgen import bench
from gmmgen.bench import (SUMMARY_COLUMNS, _regressed, default_times, evaluate_trajectory,
                          model_endpoints, run_benchmark, summarize,
                          summary_csv_lines, write_summary_csv,
                          write_trials_jsonl)
from gmmgen.data import PhaseSchedule, Pose, TaskSpec, resample
from gmmgen.gmr import regress
from gmmgen.metrics import (EvalReport, FailureReason, average_jerk, boundary_error,
                            boundary_errors, phase_deviation, shape_deviation)
from gmmgen.model import GmmModel
from gmmgen.reparam import ReparamConfig, generalize
from gmmgen.scene import (SuccessThresholds, collision_mask, sample_task,
                          trajectories_success)

from test_reparam import thin_past_pi_tasks, thin_repair_tasks


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
    """Every benchmark report equals the former two-call evaluation, and
    each chunk's (T, 2, 2) boundary errors are computed once: the one array
    reaches both the verdicts and the report rows.  The 30 trials span two
    chunks."""
    computed, judged = [], []

    def counted_boundary_errors(values, tasks):
        out = boundary_errors(values, tasks)
        assert out.shape == (len(values), 2, 2) and len(tasks) == len(values)
        computed.append(out)
        return out

    def recorded_success(times, values, scene, boundaries, thresholds):
        judged.append(boundaries)
        return trajectories_success(times, values, scene, boundaries, thresholds)

    monkeypatch.setattr(bench, "boundary_errors", counted_boundary_errors)
    monkeypatch.setattr(bench, "trajectories_success", recorded_success)
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
        assert record.report == oracle_evaluate(traj, task, scene, reference, model.phases,
                                                thresholds)
    reasons = {record.report.failure_reason for record in result.trials}
    assert FailureReason.COLLISION in reasons
    if thresholds.max_boundary_pos_mm < 10.0:
        assert FailureReason.BOUNDARY in reasons


def assert_records_match_one_trial_evaluation(result, model, scene, config, times,
                                              reference):
    """Every record is, field for field and bitwise (json.dumps writes the
    shortest repr of each float, and keeps the sign of a zero),
    evaluate_trajectory() of regress(generalize(...)) for its task."""
    for record in result.trials:
        traj = regress(generalize(model, record.task, config), times)
        want = evaluate_trajectory(traj, record.task, scene, reference, model.phases)
        assert json.dumps(record.report.to_dict()) == json.dumps(want.to_dict())


@pytest.mark.parametrize("mode", ["combined", "translational"])
@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_benchmark_records_match_one_trial_evaluation(model, scene, times, mode, ablate):
    """The chunk pipeline, kept as arrays from the adapted components to the
    verdicts, scores every trial as the one-trial functions do.  The 20
    trials span two chunks."""
    config = ReparamConfig(ablate_covariance=ablate)
    result = run_benchmark(model, scene, mode, trials=20, seed=4, config=config)
    assert_records_match_one_trial_evaluation(result, model, scene, config, times,
                                              regress(model, times))


def test_benchmark_chunk_mixing_repaired_and_unrepaired_tasks(scene, monkeypatch):
    """A chunk where an SPD repair moved a time variance of one task only:
    each task weighs its components with its own time variances, and every
    record still matches the one-trial evaluation."""
    model, tasks = thin_repair_tasks()
    monkeypatch.setattr(bench, "sample_tasks", lambda scene, mode, rngs, *bases: tasks)
    result = run_benchmark(model, scene, "combined", trials=len(tasks), seed=0)
    monkeypatch.undo()
    adapted = [generalize(model, task) for task in tasks]
    assert [m.spd_repairs > 0 for m in adapted] == [False, True]
    assert not np.array_equal(adapted[0].covs[:, 0, 0], adapted[1].covs[:, 0, 0])
    assert [record.task for record in result.trials] == tasks
    times = default_times(model.duration)
    assert_records_match_one_trial_evaluation(result, model, scene, ReparamConfig(), times,
                                              regress(model, times))


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
    turns into inf, so the regressed samples are not finite.  The other
    x-span tasks scale the span by 0.5 to 2 and regress.
    """
    rng = np.random.default_rng(23)
    sampled = [sample_task(scene, mode, rng, *endpoints)
               for mode in ("combined", "translational") for _ in range(4)]
    overflow = x_heavy_model(0.1, 1e152, 2e304)
    half_max = x_heavy_model(7e307, 0.7, 0.491)
    return TaskPools({
        "fitted": (model, sampled),
        "thin": thin_repair_tasks(),
        "overflow": (overflow, [x_task(overflow, 0.0, x) for x in (0.5, 1.0, 2.0, 1000.0)]
                     + [x_task(overflow, -1e308, 1e308)]),
        "half-max": (half_max, [x_task(half_max, 0.0, x) for x in (0.5, 1.2, 2.0)]),
    })


def one_task_reference(model, task, config, times):
    """(values, spd_repairs) of regress(generalize()) for one task, or its
    ValueError message."""
    try:
        adapted = generalize(model, task, config)
        return regress(adapted, times).values, adapted.spd_repairs
    except ValueError as exc:
        return str(exc)


@settings(max_examples=120)
@given(pool=st.sampled_from(["fitted", "thin", "overflow", "half-max"]), ablate=st.booleans(),
       picks=st.lists(st.integers(0, 7), min_size=1, max_size=6))
def test_chunk_stacks_only_tasks_the_model_stores_unchanged(chunk_pools, pool, ablate, picks):
    """A chunk of 1-6 tasks in any order gives, bitwise, each task's
    regress(generalize()) values, or raises the message one of its tasks
    raises alone.  The reference path runs once for every routed task: a
    repaired one, or one whose components GmmModel rejects or changes
    (+inf or non-finite entries, an entry it symmetrizes to inf), up to
    the first that raises; none when reparam rejects the whole chunk."""
    source, pool_tasks = chunk_pools[pool]
    tasks = [pool_tasks[i % len(pool_tasks)] for i in picks]
    config = ReparamConfig(ablate_covariance=ablate)
    times = default_times(source.duration)
    calls = []

    def counted_generalize(*args):
        calls.append(args[1])
        return generalize(*args)

    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        refs = [one_task_reference(source, task, config, times) for task in tasks]
        patch.setattr(bench, "generalize", counted_generalize)
        try:
            got, message = _regressed(source, tasks, config, times), None
        except ValueError as exc:
            got, message = None, str(exc)
    failed = [ref for ref in refs if isinstance(ref, str)]
    if message is None:
        assert not failed
        assert got.tobytes() == np.stack([values for values, _ in refs]).tobytes()
    else:
        assert message in failed
    routed = []
    if message != "new_means must be finite":  # reparam's own check of the whole chunk
        for task, ref in zip(tasks, refs):
            if isinstance(ref, str) or ref[1] > 0:
                routed.append(task)
                if isinstance(ref, str):
                    break
    assert calls == routed


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


def test_benchmark_chunk_failure_without_a_failing_task_reraises(model, scene, monkeypatch):
    """When no task fails on its own, the chunk's own error is raised."""
    def failing(*args):
        raise ValueError("sample 9: non-finite value")

    monkeypatch.setattr(bench, "_regressed", failing)
    with pytest.raises(ValueError, match="^sample 9: non-finite value$"):
        run_benchmark(model, scene, "combined", trials=4, seed=0)


@pytest.mark.parametrize("method", ["", "full,v2", 'a"b', "a\nb", "a\rb", 7])
def test_benchmark_rejects_a_method_label_that_breaks_the_csv(model, scene, method):
    with pytest.raises(ValueError, match="^method must be a non-empty string"):
        run_benchmark(model, scene, "combined", trials=1, seed=0, method=method)


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


def test_benchmark_deterministic_and_order_free(model, scene):
    # a longer run reproduces the shared prefix: trials are index-seeded, and
    # a record does not depend on its chunk (the 20-trial run ends inside
    # one; the 40-trial run spans more than two)
    assert 20 % bench.BATCH_TRIALS != 0 and 40 > 2 * bench.BATCH_TRIALS
    for ablate in (False, True):
        config = ReparamConfig(ablate_covariance=ablate)
        a = run_benchmark(model, scene, "combined", trials=20, seed=11, config=config)
        b = run_benchmark(model, scene, "combined", trials=20, seed=11, config=config)
        assert summary_csv_lines([a.summary]) == summary_csv_lines([b.summary])
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
    write_summary_csv([result.summary], csv_path)
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
