"""Randomized-task benchmark: sample tasks, generalize, regress, score.

Per-trial RNGs are derived from (seed, trial index), so trials are
independent of execution order and a run is reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SAMPLE_RATE, PhaseSchedule, Pose, TaskSpec, Trajectory, _check_real
from .gmr import regress
from .metrics import (EvalReport, average_jerk, boundary_error, phase_deviation,
                      shape_deviation)
from .model import GmmModel
from .reparam import ReparamConfig, generalize
from .scene import Scene, SuccessThresholds, sample_task, trajectory_success

# summary.csv metric column -> the EvalReport field it averages over trials
SUMMARY_METRICS = {
    "start_err_mm": "start_error_mm", "start_err_deg": "start_error_deg",
    "goal_err_mm": "goal_error_mm", "goal_err_deg": "goal_error_deg",
    "grasp_dev_mm": "grasp_dev_mm", "grasp_dev_deg": "grasp_dev_deg",
    "release_dev_mm": "release_dev_mm", "release_dev_deg": "release_dev_deg",
    "shape_dev": "shape_deviation", "jerk_lin": "jerk_linear", "jerk_ang": "jerk_angular",
}
SUMMARY_COLUMNS = ("method", "success_rate", *SUMMARY_METRICS)


def default_times(duration: float, rate: float = SAMPLE_RATE) -> np.ndarray:
    _check_real("rate", rate)
    return np.linspace(0.0, duration, int(round(duration * rate)) + 1)


def evaluate_trajectory(traj: Trajectory, task: TaskSpec, scene: Scene,
                        reference: Trajectory, phases: PhaseSchedule,
                        thresholds: SuccessThresholds = SuccessThresholds()) -> EvalReport:
    """Score one trajectory with the full metric suite plus the success check."""
    (start_mm, start_deg), (goal_mm, goal_deg) = boundary_error(traj, task)
    (grasp_mm, grasp_deg), (release_mm, release_deg) = phase_deviation(traj, phases)
    shape = shape_deviation(traj, reference)
    jerk_lin, jerk_ang = average_jerk(traj)
    success, reason = trajectory_success(traj, scene, task, thresholds)
    return EvalReport(
        success=success,
        failure_reason=reason,
        start_error_mm=start_mm,
        start_error_deg=start_deg,
        goal_error_mm=goal_mm,
        goal_error_deg=goal_deg,
        grasp_dev_mm=grasp_mm,
        grasp_dev_deg=grasp_deg,
        release_dev_mm=release_mm,
        release_dev_deg=release_deg,
        shape_deviation=shape,
        jerk_linear=jerk_lin,
        jerk_angular=jerk_ang,
    )


@dataclass(frozen=True)
class TrialRecord:
    index: int
    task: TaskSpec
    report: EvalReport


@dataclass(frozen=True)
class BenchmarkResult:
    method: str
    mode: str
    seed: int
    trials: tuple
    summary: dict


def model_endpoints(model: GmmModel):
    """First/last component means as poses; they anchor the task sampler."""
    return Pose.from_vector(model.means[0, 1:]), Pose.from_vector(model.means[-1, 1:])


def summarize(records, method: str) -> dict:
    reports = [r.report for r in records]
    summary = {
        "method": method,
        "success_rate": 100.0 * sum(r.success for r in reports) / len(reports),
    }
    summary.update({column: float(np.mean([getattr(r, field) for r in reports]))
                    for column, field in SUMMARY_METRICS.items()})
    return summary


def run_benchmark(model: GmmModel, scene: Scene, mode: str, trials: int, seed: int,
                  config: ReparamConfig | None = None,
                  thresholds: SuccessThresholds = SuccessThresholds(),
                  reference: Trajectory | None = None,
                  method: str | None = None, rate: float = SAMPLE_RATE) -> BenchmarkResult:
    """Run seeded trials of sample-generalize-regress-evaluate.

    The reference trajectory for shape deviation defaults to the source
    model's own regression.  Trial i draws from default_rng([seed, i]), so
    results do not depend on how many trials run before it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if config is None:
        config = ReparamConfig()
    times = default_times(model.duration, rate)
    if reference is None:
        reference = regress(model, times)
    if method is None:
        method = "ablated" if config.ablate_covariance else "full"
    base_start, base_goal = model_endpoints(model)

    def run_trial(i: int) -> TrialRecord:
        rng = np.random.default_rng([seed, i])
        task = sample_task(scene, mode, rng, base_start, base_goal)
        adapted = generalize(model, task, config)
        traj = regress(adapted, times)
        report = evaluate_trajectory(traj, task, scene, reference, model.phases,
                                     thresholds)
        return TrialRecord(i, task, report)

    records = [run_trial(i) for i in range(trials)]
    summary = summarize(records, method)
    return BenchmarkResult(method, mode, seed, tuple(records), summary)


def summary_csv_lines(summaries) -> list:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in summaries:
        fields = []
        for col in SUMMARY_COLUMNS:
            value = row[col]
            fields.append(value if isinstance(value, str) else str(float(value)))
        lines.append(",".join(fields))
    return lines


def write_summary_csv(summaries, path) -> None:
    Path(path).write_text("\n".join(summary_csv_lines(summaries)) + "\n",
                          encoding="utf-8")


def trial_to_dict(result: BenchmarkResult, record: TrialRecord) -> dict:
    return {
        "trial": record.index,
        "method": result.method,
        "mode": result.mode,
        "seed": result.seed,
        "task": record.task.to_dict(),
        "report": record.report.to_dict(),
    }


def write_trials_jsonl(result: BenchmarkResult, path) -> None:
    lines = [json.dumps(trial_to_dict(result, rec)) for rec in result.trials]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
