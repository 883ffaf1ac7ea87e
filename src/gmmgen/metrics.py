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

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        return cls(**obj)


_METRIC_FIELDS = tuple(f.name for f in fields(EvalReport)[2:])


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
    quat = Rotation.from_rotvec(rotvecs.reshape(-1, 3)).as_quat()
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
    angles = Rotation(quat.reshape(-1, 4), normalize=False, copy=False).magnitude()
    return angles.reshape(quat.shape[:-1])


def rotation_angle_deg(rotvec_a, rotvec_b) -> float:
    """Geodesic angle between two orientations given as rotation vectors."""
    return float(_geodesic_angles(np.reshape(rotvec_a, (1, 3)),
                                  np.reshape(rotvec_b, (1, 3)))[0] * RAD_TO_DEG)


def boundary_errors(values: np.ndarray, tasks) -> np.ndarray:
    """(T, 2, 2) boundary_error() of each (n, 6) row of a (T, n, 6) stack
    against its task, indexed [trajectory, start | goal, mm | deg]."""
    ends = values[:, [0, -1]]
    targets = np.array([[task.start_vector(), task.goal_vector()] for task in tasks])
    gaps = ends[..., :3] - targets[..., :3]
    pos_mm = np.sqrt(_dot(gaps, gaps)) * M_TO_MM
    rot_deg = _geodesic_angles(targets[..., 3:], ends[..., 3:]) * RAD_TO_DEG
    return np.stack([pos_mm, rot_deg], axis=-1)


def boundary_error(traj: Trajectory, task: TaskSpec):
    """((start mm, start deg), (goal mm, goal deg)) against the task endpoints."""
    return tuple(map(tuple, boundary_errors(_pose_stack(traj)[1], [task])[0].tolist()))


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
    """(T, 2, 2) phase deviations from the grasp and release window rows,
    each a (T, k, 6) stack; phase_deviations() describes the layout."""
    out = np.empty((len(windows[0]), 2, 2))
    for side, rows in enumerate(windows):
        center = rows.mean(axis=1, keepdims=True)
        dists = np.linalg.norm(rows[..., :3] - center[..., :3], axis=-1)
        turns = _geodesic_angles(center[..., 3:], rows[..., 3:])
        out[:, side, 0] = dists.mean(axis=1) * M_TO_MM
        out[:, side, 1] = turns.mean(axis=1) * RAD_TO_DEG
    return out


def phase_deviations(times: np.ndarray, values: np.ndarray, phases: PhaseSchedule) -> np.ndarray:
    """(T, 2, 2) phase_deviation() of each (n, 6) row of a (T, n, 6) stack
    sampled at times, indexed [trajectory, grasp | release, mm | deg].

    Each trajectory's means run along the last axis of a C-contiguous
    (T, k) array, which numpy sums row by row exactly as it sums one row.
    """
    return _window_deviations([np.ascontiguousarray(values[:, window])
                               for window in _phase_windows(times, phases)])


def phase_deviation(traj: Trajectory, phases: PhaseSchedule):
    """Mean distance from the window-mean pose in the grasp and release windows."""
    return tuple(map(tuple, phase_deviations(*_pose_stack(traj), phases)[0].tolist()))


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
    """The reference path as shape_deviations() takes it: (SHAPE_POINTS, 3)."""
    return _unit_paths(_centered_paths(*_pose_stack(reference)))[0]


def _procrustes(paths: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """(T,) shape deviations of (T, SHAPE_POINTS, 3) centered paths against
    a shape_reference()."""
    cand = _unit_paths(paths)
    u, s, vt = np.linalg.svd(np.swapaxes(cand, 1, 2) @ reference)
    proper = s[:, 0] + s[:, 1] + np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[:, 2]
    return np.maximum(2.0 - 2.0 * proper, 0.0)


def shape_deviations(times: np.ndarray, values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """(T,) shape_deviation() of each (n, 6) row of a (T, n, 6) stack sampled
    at times, against a shape_reference()."""
    return _procrustes(_centered_paths(times, values), reference)


def shape_deviation(traj: Trajectory, reference: Trajectory) -> float:
    """Squared Procrustes distance between open position paths, in [0, 2].

    Both paths are resampled to SHAPE_POINTS points on their own time grids,
    centered, and scaled to unit Frobenius norm; sample i of one is matched
    to sample i of the other, with no re-indexing of time.  The distance is
    invariant to translation, uniform scale and proper rotation, not to
    reflection.
    """
    return float(shape_deviations(*_pose_stack(traj), shape_reference(reference))[0])


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
    differences; its means are taken as in phase_deviations()."""
    sq = diffs * diffs  # each norm adds its 3 squares in np.linalg.norm's order
    norms = [np.sqrt(sq[..., i] + sq[..., i + 1] + sq[..., i + 2]).mean(axis=1) for i in (0, 3)]
    return np.stack([norms[0], norms[1] * RAD_TO_DEG], axis=-1)


def average_jerks(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(T, 2) average_jerk() of each (n, 6) row of a (T, n, 6) stack sampled
    at times."""
    return _mean_jerks(_jerk_differences(times, values))


def average_jerk(traj: Trajectory):
    """Mean third-derivative magnitude: (linear m/s^3, angular deg/s^3).

    The trajectory is resampled to a uniform JERK_RATE grid and
    differentiated with the five-point central third-difference stencil;
    the two edge samples on each side are dropped.
    """
    return tuple(average_jerks(*_pose_stack(traj))[0].tolist())
