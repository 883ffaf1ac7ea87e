"""Trajectory evaluation: boundary accuracy, phase steadiness, shape, smoothness.

Positions are scored in millimeters and rotations in degrees; everything
upstream stays in meters and radians.  Rotational errors use the geodesic
angle between orientations on SO(3).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .data import PhaseSchedule, TaskSpec, Trajectory, _dot, _resampled, _rotation, _trusted

M_TO_MM = 1000.0
RAD_TO_DEG = 180.0 / np.pi
SHAPE_POINTS = 200
JERK_RATE = 100.0


class FailureReason(str, Enum):
    """Why a trial failed: a sampled pose collided with the scene, or else an
    endpoint missed its target beyond the success thresholds; NONE on success."""

    NONE = "none"
    COLLISION = "collision"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class EvalReport:
    """One trajectory's metric suite; millimeters, degrees, and per-second cubes."""

    success: bool
    failure_reason: FailureReason
    start_error_mm: float
    start_error_deg: float
    goal_error_mm: float
    goal_error_deg: float
    grasp_dev_mm: float
    grasp_dev_deg: float
    release_dev_mm: float
    release_dev_deg: float
    shape_deviation: float
    jerk_linear: float
    jerk_angular: float

    def __post_init__(self):
        # every field after success and failure_reason is a metric value
        numeric = [getattr(self, name) for name in _METRIC_FIELDS]
        if not all(math.isfinite(v) and v >= 0.0 for v in numeric):
            raise ValueError("metric values must be finite and non-negative")
        object.__setattr__(self, "failure_reason", FailureReason(self.failure_reason))
        if self.success and self.failure_reason is not FailureReason.NONE:
            raise ValueError("a successful report cannot carry a failure reason")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["failure_reason"] = self.failure_reason.value
        return out


_REPORT_FIELDS = tuple(f.name for f in fields(EvalReport))
_METRIC_FIELDS = _REPORT_FIELDS[2:]


def _eval_reports(verdicts, rows: np.ndarray) -> list:
    """The EvalReport of each (success, failure_reason) verdict with its
    row of a (T, 11) array of metric values, in _METRIC_FIELDS order.

    The whole batch is checked once against EvalReport's rule: every value
    finite and non-negative, every reason a FailureReason, and NONE exactly
    when the trial succeeded.  A batch that passes is built on the trusted
    route; one that fails goes through EvalReport(...) row by row, which
    raises its error.
    """
    values = rows.tolist()
    if not (np.isfinite(rows).all() and (rows >= 0.0).all()
            and all(isinstance(reason, FailureReason)
                    and (reason is FailureReason.NONE) == bool(success)
                    for success, reason in verdicts)):
        return [EvalReport(*verdict, *row) for verdict, row in zip(verdicts, values)]
    # EvalReport's rule, checked on the whole batch above
    return [_trusted(EvalReport, zip(_REPORT_FIELDS, (*verdict, *row)))
            for verdict, row in zip(verdicts, values)]


def _pose_stack(traj: Trajectory):
    """(times (n,), values (1, n, 6)): one trajectory as a stack of one, a
    read-only view of its values once positions() and orientations() would
    accept them."""
    traj._require_pose_dim()
    return traj.times, traj.values[None]


def _quaternions(rotvecs) -> np.ndarray:
    """(4, ...) scalar-last quaternion components of (..., 3) rotation vectors,
    each component contiguous."""
    rotvecs = np.array(rotvecs, dtype=float)  # copy: scipy rejects read-only views
    quat = _rotation().from_rotvec(rotvecs.reshape(-1, 3)).as_quat()
    return np.ascontiguousarray(quat.T).reshape(4, *rotvecs.shape[:-1])


def _geodesic_angles(rotvecs_a, rotvecs_b) -> np.ndarray:
    """Geodesic angles (rad) between broadcastable (..., 3) rotation vectors:
    bitwise (from_rotvec(a).inv() * from_rotvec(b)).magnitude(), with the
    product and its normalization taken column by column in scipy's order."""
    ax, ay, az, pw = _quaternions(rotvecs_a)
    qx, qy, qz, qw = _quaternions(rotvecs_b)
    px, py, pz = -ax, -ay, -az
    x = pw * qx + qw * px + (py * qz - pz * qy)
    y = pw * qy + qw * py + (pz * qx - px * qz)
    z = pw * qz + qw * pz + (px * qy - py * qx)
    w = pw * qw - px * qx - py * qy - pz * qz
    quat = np.stack([x, y, z, w], axis=-1)
    quat /= np.sqrt(x * x + y * y + z * z + w * w)[..., None]
    angles = _rotation()(quat.reshape(-1, 4), normalize=False, copy=False).magnitude()
    return angles.reshape(quat.shape[:-1])


def _targets(tasks) -> np.ndarray:
    """(T, 2, 6): each task's start and goal vectors, the targets boundary_errors() takes."""
    poses = [(t.start.position, t.start.orientation, t.goal.position, t.goal.orientation)
             for t in tasks]
    return np.array(poses).reshape(-1, 2, 6)


def boundary_errors(ends: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(T, 2, 2) boundary_error() of each trajectory's first and last rows,
    stacked (T, 2, 6) as ends, against its start and goal rows of targets
    (T, 2, 6), indexed [trajectory, start | goal, mm | deg]."""
    gaps = ends[..., :3] - targets[..., :3]
    pos_mm = np.sqrt(_dot(gaps, gaps)) * M_TO_MM
    rot_deg = _geodesic_angles(targets[..., 3:], ends[..., 3:]) * RAD_TO_DEG
    return np.stack([pos_mm, rot_deg], axis=-1)


def boundary_error(traj: Trajectory, task: TaskSpec):
    """((start mm, start deg), (goal mm, goal deg)) against the task endpoints."""
    ends = _pose_stack(traj)[1][:, [0, -1]]
    return tuple(map(tuple, boundary_errors(ends, _targets([task]))[0].tolist()))


def _phase_windows(times: np.ndarray, phases: PhaseSchedule):
    """(grasp, release): boolean masks over times of the two phase windows,
    each checked to hold at least two samples."""
    windows = (("grasp", times <= phases.grasp_end, 0.0, phases.grasp_end),
               ("release", times >= phases.release_start, phases.release_start, phases.duration))
    for name, window, lo, hi in windows:
        if window.sum() < 2:
            raise ValueError(f"the {name} window [{lo}, {hi}] s holds {window.sum()} of the "
                             f"{len(times)} samples; each phase window needs at least two")
    return windows[0][1], windows[1][1]


def _window_deviations(windows) -> np.ndarray:
    """(T, 2, 2) phase_deviation() of each trajectory, indexed [trajectory,
    grasp | release, mm | deg], from its grasp and release window rows, each
    a C-contiguous (T, k, 6) array: numpy then sums each trajectory's row of
    a C-contiguous (T, k) array exactly as it sums one row."""
    out = np.empty((len(windows[0]), 2, 2))
    for side, rows in enumerate(windows):
        center = rows.mean(axis=1, keepdims=True)
        dists = np.linalg.norm(rows[..., :3] - center[..., :3], axis=-1)
        turns = _geodesic_angles(center[..., 3:], rows[..., 3:])
        out[:, side, 0] = dists.mean(axis=1) * M_TO_MM
        out[:, side, 1] = turns.mean(axis=1) * RAD_TO_DEG
    return out


def phase_deviation(traj: Trajectory, phases: PhaseSchedule):
    """Mean distance from the window-mean pose in the grasp and release windows."""
    times, values = _pose_stack(traj)
    windows = [np.ascontiguousarray(values[:, window]) for window in _phase_windows(times, phases)]
    return tuple(map(tuple, _window_deviations(windows)[0].tolist()))


def _centered_paths(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(..., SHAPE_POINTS, 3): each position path resampled and centered."""
    pts = _resampled(times, values[..., :3], SHAPE_POINTS)[1]
    pts -= pts.mean(axis=-2, keepdims=True)
    return pts


def _unit_paths(pts: np.ndarray) -> np.ndarray:
    """(T, SHAPE_POINTS, 3): each centered path scaled to unit norm."""
    norms = np.array([np.linalg.norm(path) for path in pts])  # per path: rounds as 1-D
    if (norms < 1e-12).any():
        raise ValueError("shape deviation is undefined for a degenerate point set")
    return pts / norms[:, None, None]


def shape_reference(reference: Trajectory) -> np.ndarray:
    """The reference path as _procrustes() takes it: (SHAPE_POINTS, 3)."""
    return _unit_paths(_centered_paths(*_pose_stack(reference)))[0]


def _procrustes(paths: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """(T,) shape deviations of (T, SHAPE_POINTS, 3) centered paths against
    a shape_reference()."""
    cand = _unit_paths(paths)
    u, s, vt = np.linalg.svd(np.swapaxes(cand, 1, 2) @ reference)
    proper = s[:, 0] + s[:, 1] + np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[:, 2]
    return np.maximum(2.0 - 2.0 * proper, 0.0)


def shape_deviation(traj: Trajectory, reference: Trajectory) -> float:
    """Squared Procrustes distance between open position paths, in [0, 2].

    Both paths are resampled to SHAPE_POINTS points on their own time grids,
    centered, and scaled to unit Frobenius norm; sample i of one is matched
    to sample i of the other, with no re-indexing of time.  The distance is
    invariant to translation, uniform scale and proper rotation, not to
    reflection.
    """
    return float(_procrustes(_centered_paths(*_pose_stack(traj)), shape_reference(reference))[0])


def _jerk_differences(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(..., m - 4, 6): the five-point third differences of values resampled
    to m points on a uniform JERK_RATE grid, per second cubed."""
    duration = float(times[-1])
    n = int(round(duration * JERK_RATE)) + 1
    if n < 8:
        raise ValueError("trajectory too short for jerk estimation")
    grid = _resampled(times, values, n)[1]
    h = duration / (n - 1)
    # (g[4:] - 2 g[3:-1] + 2 g[1:-3] - g[:-4]) / (2 h^3), op by op in place
    diff = np.multiply(grid[..., 3:-1, :], 2.0)
    np.subtract(grid[..., 4:, :], diff, out=diff)
    diff += 2.0 * grid[..., 1:-3, :]
    diff -= grid[..., :-4, :]
    diff /= 2.0 * h**3
    return diff


def _mean_jerks(diffs: np.ndarray) -> np.ndarray:
    """(T, 2) mean linear and angular (deg) norms of (T, m, 6) third
    differences; its means are taken as in _window_deviations().

    Each norm adds its three squares in np.linalg.norm's order, one
    dimension at a time into one (T, m) accumulator, then takes the square
    root in place: no (T, m, 6) array of squares is built.
    """
    norms = []
    for i in (0, 3):
        acc = diffs[..., i] * diffs[..., i]
        acc += diffs[..., i + 1] * diffs[..., i + 1]
        acc += diffs[..., i + 2] * diffs[..., i + 2]
        norms.append(np.sqrt(acc, out=acc).mean(axis=1))
    return np.stack([norms[0], norms[1] * RAD_TO_DEG], axis=-1)


def average_jerk(traj: Trajectory):
    """Mean third-derivative magnitude: (linear m/s^3, angular deg/s^3).

    The trajectory is resampled to a uniform JERK_RATE grid and
    differentiated with the five-point central third-difference stencil;
    the two edge samples on each side are dropped.
    """
    return tuple(_mean_jerks(_jerk_differences(*_pose_stack(traj)))[0].tolist())
