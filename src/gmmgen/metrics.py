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

from .data import PhaseSchedule, TaskSpec, Trajectory, resample

M_TO_MM = 1000.0
RAD_TO_DEG = 180.0 / np.pi
SHAPE_POINTS = 200
JERK_RATE = 100.0


class FailureReason(str, Enum):
    NONE = "none"
    COLLISION = "collision"
    BOUNDARY = "boundary"
    INVALID = "invalid"


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


def rotation_angle_deg(rotvec_a, rotvec_b) -> float:
    """Geodesic angle between two orientations given as rotation vectors."""
    # copies: scipy rejects the read-only views Pose/Trajectory hand out
    ra = Rotation.from_rotvec(np.array(rotvec_a, dtype=float))
    rb = Rotation.from_rotvec(np.array(rotvec_b, dtype=float))
    return float((ra.inv() * rb).magnitude() * RAD_TO_DEG)


def boundary_error(traj: Trajectory, task: TaskSpec):
    """((start mm, start deg), (goal mm, goal deg)) against the task endpoints."""
    positions, rotvecs = traj.positions(), traj.orientations()
    out = []
    for index, target in ((0, task.start), (-1, task.goal)):
        pos_mm = float(np.linalg.norm(positions[index] - target.position)) * M_TO_MM
        rot_deg = rotation_angle_deg(target.orientation, rotvecs[index])
        out.append((pos_mm, rot_deg))
    return tuple(out)


def _window_deviation(values: np.ndarray):
    positions = values[:, :3]
    rotvecs = np.array(values[:, 3:6], dtype=float)
    mean_pos = positions.mean(axis=0)
    mean_rot = rotvecs.mean(axis=0)
    pos_dev = float(np.linalg.norm(positions - mean_pos, axis=1).mean()) * M_TO_MM
    mean_rotation = Rotation.from_rotvec(mean_rot)
    rel = mean_rotation.inv() * Rotation.from_rotvec(rotvecs)
    rot_dev = float(rel.magnitude().mean()) * RAD_TO_DEG
    return pos_dev, rot_dev


def phase_deviation(traj: Trajectory, phases: PhaseSchedule):
    """Mean distance from the window-mean pose in the grasp and release windows."""
    if traj.dim != 6:
        raise ValueError("phase deviation needs 6-DoF trajectories")
    grasp = traj.values[traj.times <= phases.grasp_end]
    release = traj.values[traj.times >= phases.release_start]
    if len(grasp) < 2 or len(release) < 2:
        raise ValueError("each phase window needs at least two samples")
    return _window_deviation(grasp), _window_deviation(release)


def _normalized_positions(traj: Trajectory) -> np.ndarray:
    pts = resample(traj, SHAPE_POINTS).positions().copy()
    pts -= pts.mean(axis=0)
    norm = float(np.linalg.norm(pts))
    if norm < 1e-12:
        raise ValueError("shape deviation is undefined for a degenerate point set")
    return pts / norm


def shape_deviation(traj: Trajectory, reference: Trajectory) -> float:
    """Squared Procrustes distance between open position paths, in [0, 2].

    Both paths are resampled to SHAPE_POINTS points on their own time grids,
    centered, and scaled to unit Frobenius norm; sample i of one is matched
    to sample i of the other, with no re-indexing of time.  The distance is
    invariant to translation, uniform scale and proper rotation, not to
    reflection.
    """
    ref = _normalized_positions(reference)
    cand = _normalized_positions(traj)
    u, s, vt = np.linalg.svd(cand.T @ ref)
    proper = s[0] + s[1] + np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[2]
    return max(float(2.0 - 2.0 * proper), 0.0)


def average_jerk(traj: Trajectory):
    """Mean third-derivative magnitude: (linear m/s^3, angular deg/s^3).

    The trajectory is resampled to a uniform JERK_RATE grid and
    differentiated with the five-point central third-difference stencil;
    the two edge samples on each side are dropped.
    """
    if traj.dim != 6:
        raise ValueError("jerk needs 6-DoF trajectories")
    n = int(round(traj.duration * JERK_RATE)) + 1
    if n < 8:
        raise ValueError("trajectory too short for jerk estimation")
    grid = resample(traj, n)
    h = traj.duration / (n - 1)
    v = grid.values
    third = (v[4:] - 2.0 * v[3:-1] + 2.0 * v[1:-3] - v[:-4]) / (2.0 * h**3)
    linear = float(np.linalg.norm(third[:, :3], axis=1).mean())
    angular = float(np.linalg.norm(third[:, 3:6], axis=1).mean()) * RAD_TO_DEG
    return linear, angular
