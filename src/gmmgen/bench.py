"""Randomized-task benchmark: sample tasks, generalize, regress, score.

Per-trial RNGs are derived from (seed, trial index), so trials are
independent of execution order and a run is reproducible byte for byte.

A run compiles generalize-then-regress into three curves, a + b * start +
c * goal dimension by dimension, and applies every metric's linear map to
them once (_Compiled).  A trial's scores then match the one-trial
evaluate_trajectory(regress(generalize())) to rounding, with the same
success flag and failure reason; regress, generalize, the sampled tasks
and evaluate_trajectory themselves are unchanged bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (SAMPLE_RATE, PhaseSchedule, Pose, TaskSpec, Trajectory, _check_int,
                   _check_real, _resampled, _rotvec_angles)
from .gmr import _validated_times, regress
from .metrics import (EvalReport, _centered_paths, _jerk_differences, _mean_jerks, _phase_windows,
                      _pose_stack, _procrustes, _targets, _window_deviations,
                      boundary_errors, shape_reference)
from .model import GmmModel
from .reparam import ReparamConfig, _curves, _plain_tasks, generalize
from .scene import SamplingError, Scene, SuccessThresholds, _verdicts, sample_tasks
from .scene import trajectory_success  # noqa: F401  perfbench traces it through bench

# Trials scored per chunk in run_benchmark.  A chunk holds its tasks' rows of
# the mapped curves, about 1 MB in all; outputs do not depend on it.
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


def _features(times: np.ndarray, values: np.ndarray, phases: PhaseSchedule, samples: int):
    """The fixed linear maps of (..., n, 6) values sampled at times that the
    scores read: the boundary rows (..., 2, 6), the grasp and release window
    rows (..., k, 6), the centered shape paths (..., SHAPE_POINTS, 3), the
    jerk differences (..., m, 6) and the collision samples (..., samples, 6)."""
    return (values[..., [0, -1], :],
            *(np.ascontiguousarray(values[..., window, :])
              for window in _phase_windows(times, phases)),
            _centered_paths(times, values), _jerk_differences(times, values),
            _resampled(times, values, samples)[1])


def _scores(features, targets: np.ndarray, scene: Scene, reference: np.ndarray,
            thresholds: SuccessThresholds) -> list:
    """The EvalReport of each task from its _features() rows, stacked (T, ...),
    and its start and goal vectors, stacked (T, 2, 6) as targets.

    The verdicts take one _verdicts() call that reads the (T, 2, 2) boundary
    errors the reports show.  Each report's metric values are one row of a
    (T, 11) array whose columns follow the EvalReport fields.
    """
    ends, grasp, release, paths, diffs, sampled = features
    boundaries = boundary_errors(ends, targets)
    verdicts = _verdicts(sampled, scene, boundaries, thresholds)
    rows = np.concatenate([boundaries.reshape(-1, 4),
                           _window_deviations((grasp, release)).reshape(-1, 4),
                           _procrustes(paths, reference)[:, None], _mean_jerks(diffs)], axis=1)
    return [EvalReport(success, reason, *row)
            for (success, reason), row in zip(verdicts, rows.tolist())]


def evaluate_trajectory(traj: Trajectory, task: TaskSpec, scene: Scene,
                        reference: Trajectory, phases: PhaseSchedule,
                        thresholds: SuccessThresholds = SuccessThresholds()) -> EvalReport:
    """Score one trajectory, as a stack of one, with the full metric suite plus
    the success check; the report and the verdict read the same boundary errors."""
    features = _features(*_pose_stack(traj), phases, thresholds.collision_samples)
    return _scores(features, _targets([task]), scene, shape_reference(reference), thresholds)[0]


def _mapped(feature: np.ndarray, dims: slice):
    """(columns (d, 3, M), long shape, dims) of a (3, ..., d) feature of the
    curves a, b, c over the pose dimensions dims, as _combined() takes it."""
    columns = feature.transpose(-1, *range(feature.ndim - 1)).reshape(feature.shape[-1], 3, -1)
    return np.ascontiguousarray(columns), feature.shape[1:-1], dims


def _combined(mapped, coefs: np.ndarray) -> np.ndarray:
    """(T, ..., d): a + b * start + c * goal of a _mapped() feature for T
    (start, goal) pairs given as coefs (D, T, 3), rows [1, start_i, goal_i]
    per dimension i; a view of a (d, T, ...) array."""
    columns, shape, dims = mapped
    out = (coefs[dims] @ columns).reshape(len(columns), coefs.shape[1], *shape)
    return out.transpose(*range(1, out.ndim), 0)


class _Compiled:
    """One run's trials scored on curves compiled once.

    With the source model and the time grid fixed, regress(generalize(model,
    task, config), times).values is a + b * start + c * goal, dimension by
    dimension (reparam._curves).  Every map in _features() is linear, so it
    is applied once to the three curves, and a task's rows are the same
    combination of the mapped curves.  A task's scores then match the
    one-trial evaluation to rounding, not bit for bit.

    A chunk routes its tasks on generalize's own kernels (reparam's
    _plain_tasks): one stack of remapped means and, for the full method,
    one batched Cholesky of the adapted covariances.  A task goes through
    the one-trajectory path, evaluate_trajectory(regress(generalize())),
    which raises that task's own error, when generalize would not store its
    means and covariances unchanged (means not finite, a covariance entry
    above half the largest float, an SPD repair), when its combination
    could overflow, or when a combined rotation row does not stay below
    pi.  A model generalize rejects makes the chunk raise its ValueError.
    """

    def __init__(self, model: GmmModel, config: ReparamConfig, times: np.ndarray, scene: Scene,
                 reference: Trajectory, thresholds: SuccessThresholds):
        self.model, self.config, self.times = model, config, times
        self.scene, self.reference, self.thresholds = scene, reference, thresholds
        self.shape = shape_reference(reference)
        curves = _curves(model, times, config.ablate_covariance)
        self.reach = np.abs(curves).max(axis=1)  # (3, 6): bounds every combined entry
        self.rotations = _mapped(curves[..., 3:], slice(3, 6))
        self.features = [_mapped(feature, slice(0, feature.shape[-1]))
                         for feature in _features(times, curves, model.phases,
                                                  thresholds.collision_samples)]

    def reports(self, tasks) -> list:
        """The EvalReport of each task."""
        targets = _targets(tasks)
        starts, goals = targets[:, 0], targets[:, 1]
        compiled = _plain_tasks(self.model, starts, goals, self.config.ablate_covariance)
        with np.errstate(over="ignore", invalid="ignore"):
            reach = self.reach[0] + self.reach[1] * np.abs(starts) + self.reach[2] * np.abs(goals)
        compiled &= np.isfinite(reach).all(axis=1)
        coefs = np.stack([np.ones(starts.shape), starts, goals]).transpose(2, 1, 0)  # (D, T, 3)
        rotations = _combined(self.rotations, coefs[:, compiled])
        compiled[compiled] = (_rotvec_angles(rotations) < np.pi).all(axis=1)
        reports = [None] * len(tasks)
        for k in np.flatnonzero(~compiled):
            traj = regress(generalize(self.model, tasks[k], self.config), self.times)
            reports[k] = evaluate_trajectory(traj, tasks[k], self.scene, self.reference,
                                             self.model.phases, self.thresholds)
        picked = np.flatnonzero(compiled)
        if len(picked):
            features = [_combined(f, coefs[:, picked]) for f in self.features]
            for k, report in zip(picked, _scores(features, targets[picked], self.scene,
                                                 self.shape, self.thresholds)):
                reports[k] = report
        return reports


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
    how many trials run before it.  All tasks are drawn in one sample_tasks
    pass, which keeps one generator per trial alive until it ends (about
    1 KB each, so about 50 KB for 50 trials); a task the sampler cannot
    place is a ValueError naming its trial and endpoint.  Generalization
    and regression are compiled once per run into curves, and every
    metric's linear map is applied to them once (see _Compiled).  Trials
    are scored in chunks of BATCH_TRIALS: each task's rows are a
    combination of the mapped curves, and the chunk's poses are checked
    for collision in one call.  A trial's record matches, to rounding, the
    one evaluate_trajectory() gives for regress(generalize(model, task,
    config), times), whatever chunk it falls in, and a rerun reproduces it
    bit for bit.  When a chunk raises a ValueError, as a task it routes to
    the one-trajectory path can, its tasks are run again one by one, and
    the error names the first failing trial with that task's own message.
    A model that is not a GmmModel is a TypeError naming its type.
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
    if not isinstance(model, GmmModel):
        raise TypeError(f"model must be a GmmModel, got {type(model).__name__}")
    times = _validated_times(default_times(model.duration, rate), model.duration)
    base_start, base_goal = model_endpoints(model)
    compiled = _Compiled(model, config, times, scene,
                         regress(model, times) if reference is None else reference, thresholds)

    try:
        all_tasks = sample_tasks(scene, mode, [np.random.default_rng([seed, i])
                                               for i in range(trials)], base_start, base_goal)
    except SamplingError as exc:
        raise ValueError(f"trial {exc.index}, {exc.reason}") from None
    records = []
    for first in range(0, trials, BATCH_TRIALS):
        indices = range(first, min(first + BATCH_TRIALS, trials))
        tasks = all_tasks[first:indices.stop]
        try:
            reports = compiled.reports(tasks)
        except ValueError:  # name the first failing trial with its one-task message
            for i, task in zip(indices, tasks):
                try:
                    regress(generalize(model, task, config), times)
                except ValueError as exc:
                    raise ValueError(f"trial {i}: {exc}") from None
            raise
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
