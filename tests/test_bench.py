import json

import numpy as np
import pytest

from gmmgen.bench import (SUMMARY_COLUMNS, default_times, evaluate_trajectory,
                          model_endpoints, run_benchmark, summarize,
                          summary_csv_lines, write_summary_csv,
                          write_trials_jsonl)
from gmmgen.data import TaskSpec
from gmmgen.gmr import regress
from gmmgen.reparam import ReparamConfig


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
    a = run_benchmark(model, scene, "combined", trials=6, seed=11)
    b = run_benchmark(model, scene, "combined", trials=6, seed=11)
    assert summary_csv_lines([a.summary]) == summary_csv_lines([b.summary])
    for ra, rb in zip(a.trials, b.trials):
        assert np.array_equal(ra.task.start_vector(), rb.task.start_vector())
        assert ra.report == rb.report
    # a longer run reproduces the shared prefix: trials are index-seeded
    c = run_benchmark(model, scene, "combined", trials=8, seed=11)
    for ra, rc in zip(a.trials, c.trials[:6]):
        assert ra.report == rc.report


def test_benchmark_ablated_method_label(model, scene):
    result = run_benchmark(model, scene, "translational", trials=2, seed=3,
                           config=ReparamConfig(ablate_covariance=True))
    assert result.method == "ablated"
    assert result.summary["method"] == "ablated"


def test_benchmark_validation(model, scene):
    with pytest.raises(ValueError):
        run_benchmark(model, scene, "combined", trials=0, seed=0)
    with pytest.raises(ValueError):
        run_benchmark(model, scene, "sideways", trials=1, seed=0)


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
