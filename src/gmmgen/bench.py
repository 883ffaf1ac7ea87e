"""Randomized-task benchmark: sample tasks, generalize, regress, score.

Per-trial RNGs are derived from (seed, trial index), so trials are
independent of execution order and a run is reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (SAMPLE_RATE, PhaseSchedule, Pose, TaskSpec, Trajectory, _check_int,
                   _check_real, _check_samples)
from .gmr import _expected_poses, _validated_times, regress
from .metrics import (EvalReport, _pose_stack, average_jerks, boundary_errors,
                      phase_deviations, shape_deviations, shape_reference)
from .model import GmmModel
from .reparam import ReparamConfig, _reparam, generalize
from .scene import Scene, SuccessThresholds, sample_tasks, trajectories_success
from .scene import trajectory_success  # noqa: F401  perfbench traces it through bench

# Trials scored per stack in run_benchmark.  A chunk holds its (T, n, 6)
# values and their metric stacks, a few MB in all; outputs do not depend on it.
BATCH_TRIALS = 16

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


def evaluate_trajectories(times: np.ndarray, values: np.ndarray, tasks, scene: Scene,
                          reference: np.ndarray, phases: PhaseSchedule,
                          thresholds: SuccessThresholds = SuccessThresholds()) -> list:
    """evaluate_trajectory() for each (n, 6) row of a (T, n, 6) stack sampled
    at times, each against its task.

    reference is the shape_reference() of the reference trajectory.  Every
    metric returns an array over the stack, and the verdicts take one
    trajectories_success() call that reads the (T, 2, 2) boundary errors
    the reports show.  Each report's metric values are one row of a (T, 11)
    array whose columns follow the EvalReport fields, read as Python floats.
    """
    boundaries = boundary_errors(values, tasks)
    verdicts = trajectories_success(times, values, scene, boundaries, thresholds)
    rows = np.concatenate([boundaries.reshape(-1, 4),
                           phase_deviations(times, values, phases).reshape(-1, 4),
                           shape_deviations(times, values, reference)[:, None],
                           average_jerks(times, values)], axis=1)
    return [EvalReport(success, reason, *row)
            for (success, reason), row in zip(verdicts, rows.tolist())]


def evaluate_trajectory(traj: Trajectory, task: TaskSpec, scene: Scene,
                        reference: Trajectory, phases: PhaseSchedule,
                        thresholds: SuccessThresholds = SuccessThresholds()) -> EvalReport:
    """Score one trajectory with the full metric suite plus the success check;
    the report and the verdict read the same boundary errors."""
    return evaluate_trajectories(*_pose_stack(traj), [task], scene, shape_reference(reference),
                                 phases, thresholds)[0]


def _regressed(model: GmmModel, tasks, config: ReparamConfig, times: np.ndarray) -> np.ndarray:
    """(T, n, D) values of regress(generalize(model, task, config), times) for
    each task, bitwise equal to them.  times must be valid query times from 0.

    Tasks with no SPD repair, finite means and covariance entries at most half
    the largest float are one stack, regressed on the source's time variances:
    GmmModel would store their components unchanged, as they passed reparam's
    Cholesky (or are the source's) and, symmetric by construction, come back
    from its symmetrize.  Every other task goes through regress(generalize()).
    """
    starts = np.array([task.start_vector() for task in tasks])
    goals = np.array([task.goal_vector() for task in tasks])
    means, covs, repairs = _reparam(model, starts, goals, config)
    stacked = ((repairs == 0) & np.isfinite(means).all(axis=(1, 2))
               & (np.abs(covs) <= np.finfo(float).max / 2).all(axis=(1, 2, 3)))
    values = np.empty((len(tasks), len(times), model.dim))
    values[stacked] = _expected_poses(model.priors, model.means[:, 0], model.covs[:, 0, 0],
                                      means[stacked], covs[stacked], times)
    for k in np.flatnonzero(~stacked):
        values[k] = regress(generalize(model, tasks[k], config), times).values
    _check_samples(times, values)
    return values


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
    model's own regression, and is resampled and normalized once per run.
    Trial i draws from default_rng([seed, i]), so results do not depend on
    how many trials run before it.  Trials are scored in chunks of
    BATCH_TRIALS, each kept as arrays from its sampled tasks to its
    reports: one (T, n, 6) stack is generalized, regressed (see
    _regressed) and checked, measured by the stacked metrics, and checked
    for collision in one call.  A trial's record is the one
    evaluate_trajectory() gives for regress(generalize(model, task, config),
    times), whatever chunk it falls in.  When a chunk raises a ValueError,
    its tasks are run again one by one, and the error names the first
    failing trial with that task's own message.
    """
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    if config is None:
        config = ReparamConfig()
    if method is None:
        method = "ablated" if config.ablate_covariance else "full"
    if not (isinstance(method, str) and method) or any(c in method for c in ',"\r\n'):
        raise ValueError(f"method must be a non-empty string with no comma, double quote or "
                         f"line break (it is a summary.csv field), got {method!r}")
    times = _validated_times(default_times(model.duration, rate), model.duration)
    shape_ref = shape_reference(regress(model, times) if reference is None else reference)
    base_start, base_goal = model_endpoints(model)

    records = []
    for first in range(0, trials, BATCH_TRIALS):
        indices = range(first, min(first + BATCH_TRIALS, trials))
        rngs = [np.random.default_rng([seed, i]) for i in indices]
        tasks = sample_tasks(scene, mode, rngs, base_start, base_goal)
        try:
            values = _regressed(model, tasks, config, times)
        except ValueError:  # name the first failing trial with its one-task message
            for i, task in zip(indices, tasks):
                try:
                    regress(generalize(model, task, config), times)
                except ValueError as exc:
                    raise ValueError(f"trial {i}: {exc}") from None
            raise
        reports = evaluate_trajectories(times, values, tasks, scene, shape_ref, model.phases,
                                        thresholds)
        records += map(TrialRecord, indices, tasks, reports)
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
