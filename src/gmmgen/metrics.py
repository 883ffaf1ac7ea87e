"""Trajectory evaluation: boundary accuracy, phase steadiness, shape, smoothness.

Positions are scored in millimeters and rotations in degrees; everything
upstream stays in meters and radians.  Rotational errors use the geodesic
angle between orientations on SO(3).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np
from scipy.spatial.transform import Rotation

from .data import PhaseSchedule, TaskSpec, Trajectory, _dot, _resampled

M_TO_MM = 1000.0
RAD_TO_DEG = 180.0 / np.pi
SHAPE_POINTS = 200
JERK_RATE = 100.0


class FailureReason(str, Enum):
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
        numeric = [getattr(self, f.name) for f in fields(self)[2:]]
        if not all(np.isfinite(v) and v >= 0.0 for v in numeric):
            raise ValueError("metric values must be finite and non-negative")
        object.__setattr__(self, "failure_reason", FailureReason(self.failure_reason))
        if self.success and self.failure_reason is not FailureReason.NONE:
            raise ValueError("a successful report cannot carry a failure reason")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["failure_reason"] = self.failure_reason.value
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        return cls(**obj)


def _pose_stack(trajs):
    """(times, values) of trajectories sampled on one time grid: times (n,)
    and values (T, n, 6), positions then rotation vectors, each trajectory
    read through positions() and orientations()."""
    times = trajs[0].times
    if not all(np.array_equal(traj.times, times) for traj in trajs[1:]):
        raise ValueError("stacked trajectories must share one time grid")
    values = np.empty((len(trajs), len(times), 6))
    for row, traj in zip(values, trajs):
        row[:, :3] = traj.positions()
        row[:, 3:] = traj.orientations()
    return times, values


def _geodesic_angles(rotvecs_a, rotvecs_b) -> np.ndarray:
    """Geodesic angles (rad) between (k, 3) rotation vectors, row by row."""
    # copies: scipy rejects the read-only views Pose/Trajectory hand out
    ra = Rotation.from_rotvec(np.array(rotvecs_a, dtype=float))
    rb = Rotation.from_rotvec(np.array(rotvecs_b, dtype=float))
    return (ra.inv() * rb).magnitude()


def rotation_angle_deg(rotvec_a, rotvec_b) -> float:
    """Geodesic angle between two orientations given as rotation vectors."""
    return float(_geodesic_angles(np.reshape(rotvec_a, (1, 3)),
                                  np.reshape(rotvec_b, (1, 3)))[0] * RAD_TO_DEG)


def boundary_errors(values: np.ndarray, tasks) -> list:
    """boundary_error() for each (n, 6) row of a (T, n, 6) stack and its task."""
    ends = values[:, [0, -1]]
    targets = np.array([[task.start_vector(), task.goal_vector()] for task in tasks])
    gaps = ends[..., :3] - targets[..., :3]
    pos_mm = np.sqrt(_dot(gaps, gaps)) * M_TO_MM
    rot_deg = (_geodesic_angles(targets[..., 3:].reshape(-1, 3), ends[..., 3:].reshape(-1, 3))
               * RAD_TO_DEG).reshape(-1, 2)
    return [((float(mm[0]), float(deg[0])), (float(mm[1]), float(deg[1])))
            for mm, deg in zip(pos_mm, rot_deg)]


def boundary_error(traj: Trajectory, task: TaskSpec):
    """((start mm, start deg), (goal mm, goal deg)) against the task endpoints."""
    return boundary_errors(_pose_stack([traj])[1], [task])[0]


def phase_deviations(times: np.ndarray, values: np.ndarray, phases: PhaseSchedule) -> list:
    """phase_deviation() for each (n, 6) row of a (T, n, 6) stack sampled at times.

    Window means over samples are stacked, and both windows' rotations go
    through one Rotation product.  Each mean over one trajectory's
    deviations is taken on its own 1-D row: a stacked (T, k) mean can round
    differently.
    """
    windows = (times <= phases.grasp_end, times >= phases.release_start)
    if min(window.sum() for window in windows) < 2:
        raise ValueError("each phase window needs at least two samples")
    samples = [np.ascontiguousarray(values[:, window]) for window in windows]  # (T, k, 6)
    centers = [rows.mean(axis=1, keepdims=True) for rows in samples]
    angles = _geodesic_angles(
        np.concatenate([np.broadcast_to(center[..., 3:], rows[..., 3:].shape).reshape(-1, 3)
                        for rows, center in zip(samples, centers)]),
        np.concatenate([rows[..., 3:].reshape(-1, 3) for rows in samples]))
    out = []
    for rows, center, turns in zip(samples, centers,
                                   np.split(angles, [samples[0][..., 0].size])):
        dists = np.linalg.norm(rows[..., :3] - center[..., :3], axis=-1)
        out.append([(float(d.mean()) * M_TO_MM, float(a.mean()) * RAD_TO_DEG)
                    for d, a in zip(dists, turns.reshape(dists.shape))])
    return list(zip(*out))


def phase_deviation(traj: Trajectory, phases: PhaseSchedule):
    """Mean distance from the window-mean pose in the grasp and release windows."""
    return phase_deviations(*_pose_stack([traj]), phases)[0]


def _unit_paths(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(T, SHAPE_POINTS, 3): each position path resampled, centered, unit norm."""
    pts = _resampled(times, values[..., :3], SHAPE_POINTS)[1]
    pts -= pts.mean(axis=1, keepdims=True)
    norms = np.array([np.linalg.norm(path) for path in pts])  # per path: rounds as 1-D
    if (norms < 1e-12).any():
        raise ValueError("shape deviation is undefined for a degenerate point set")
    return pts / norms[:, None, None]


def shape_reference(reference: Trajectory) -> np.ndarray:
    """The reference path as shape_deviations() takes it: (SHAPE_POINTS, 3)."""
    return _unit_paths(*_pose_stack([reference]))[0]


def shape_deviations(times: np.ndarray, values: np.ndarray, reference: np.ndarray) -> list:
    """shape_deviation() for each (n, 6) row of a (T, n, 6) stack sampled at
    times, against a shape_reference()."""
    cand = _unit_paths(times, values)
    u, s, vt = np.linalg.svd(np.swapaxes(cand, 1, 2) @ reference)
    proper = s[:, 0] + s[:, 1] + np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[:, 2]
    return [max(float(2.0 - 2.0 * p), 0.0) for p in proper]


def shape_deviation(traj: Trajectory, reference: Trajectory) -> float:
    """Squared Procrustes distance between open position paths, in [0, 2].

    Both paths are resampled to SHAPE_POINTS points on their own time grids,
    centered, and scaled to unit Frobenius norm; sample i of one is matched
    to sample i of the other, with no re-indexing of time.  The distance is
    invariant to translation, uniform scale and proper rotation, not to
    reflection.
    """
    return shape_deviations(*_pose_stack([traj]), shape_reference(reference))[0]


def average_jerks(times: np.ndarray, values: np.ndarray) -> list:
    """average_jerk() for each (n, 6) row of a (T, n, 6) stack sampled at times;
    each trajectory's mean is taken on its own row."""
    duration = float(times[-1])
    n = int(round(duration * JERK_RATE)) + 1
    if n < 8:
        raise ValueError("trajectory too short for jerk estimation")
    grid = _resampled(times, values, n)[1]
    h = duration / (n - 1)
    third = (grid[:, 4:] - 2.0 * grid[:, 3:-1] + 2.0 * grid[:, 1:-3] - grid[:, :-4]) / (2.0 * h**3)
    lin = np.linalg.norm(third[..., :3], axis=-1)
    ang = np.linalg.norm(third[..., 3:], axis=-1)
    return [(float(p.mean()), float(r.mean()) * RAD_TO_DEG) for p, r in zip(lin, ang)]


def average_jerk(traj: Trajectory):
    """Mean third-derivative magnitude: (linear m/s^3, angular deg/s^3).

    The trajectory is resampled to a uniform JERK_RATE grid and
    differentiated with the five-point central third-difference stencil;
    the two edge samples on each side are dropped.
    """
    return average_jerks(*_pose_stack([traj]))[0]
