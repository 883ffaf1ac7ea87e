import json

import numpy as np
import pytest

from gmmgen import bench
from gmmgen.bench import (SUMMARY_COLUMNS, default_times, evaluate_trajectory,
                          model_endpoints, run_benchmark, summarize,
                          summary_csv_lines, write_summary_csv,
                          write_trials_jsonl)
from gmmgen.data import TaskSpec, resample
from gmmgen.gmr import regress
from gmmgen.metrics import (EvalReport, FailureReason, average_jerk, boundary_error,
                            boundary_errors, phase_deviation, shape_deviation)
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
