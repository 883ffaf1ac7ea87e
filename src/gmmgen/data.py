"""Trajectory containers, resampling, and CSV I/O shared across the package.

Poses are 6-vectors: position in meters followed by an axis-angle rotation
vector in radians.  Rotation vectors are treated as plain Euclidean
coordinates everywhere; poses near the axis-angle singularity (magnitude
approaching pi) are rejected at construction instead of handled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POSE_DIM = 6
CSV_COLUMNS = ("t", "px", "py", "pz", "rx", "ry", "rz")
CSV_HEADER = ",".join(CSV_COLUMNS)


class TrajectoryFormatError(ValueError):
    """A trajectory file violates the CSV schema (header, row shape, or ordering)."""


def _frozen_array(values, shape=None) -> np.ndarray:
    out = np.array(values, dtype=float)
    if shape is not None:
        out = out.reshape(shape)
    out.flags.writeable = False
    return out


def _read_json(path, parse=lambda obj: obj):
    """Parse a JSON file and hand the object to `parse`.

    A read failure, invalid JSON, or a ValueError from `parse` becomes a
    ValueError prefixed with the path.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_json(path, obj) -> None:
    """Write obj as 2-space-indented JSON plus a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Pose:
    """A 6-DoF pose: position (m) plus rotation vector (rad)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        pos = _frozen_array(self.position, 3)
        rot = _frozen_array(self.orientation, 3)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", rot)
        if not (np.isfinite(pos).all() and np.isfinite(rot).all()):
            raise ValueError("pose entries must be finite")
        angle = float(np.linalg.norm(rot))
        if angle >= np.pi:
            raise ValueError(
                f"rotation-vector magnitude {angle:.6f} rad must stay below pi"
            )

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.orientation])

    @classmethod
    def from_vector(cls, vec) -> "Pose":
        vec = np.asarray(vec, dtype=float).reshape(POSE_DIM)
        return cls(vec[:3], vec[3:])


@dataclass(frozen=True)
class PhaseSchedule:
    """Grasp/transport/release boundaries of a demonstration, in seconds."""

    grasp_end: float
    release_start: float
    duration: float

    def __post_init__(self):
        if not (0.0 < self.grasp_end < self.release_start < self.duration):
            raise ValueError(
                "phase boundaries must satisfy 0 < grasp_end < release_start < duration"
            )


@dataclass(frozen=True)
class Trajectory:
    """A time-indexed series of vectors, one row per sample.

    ``values`` holds one pose row (or a lower-dimensional test vector) per
    timestamp.  Timestamps must be strictly increasing and start at zero.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _frozen_array(self.times)
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 2 or len(times) != len(values):
            raise ValueError("times must be (n,) and values (n, D)")
        if len(times) < 2:
            raise ValueError("a trajectory needs at least two samples")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("trajectory entries must be finite")
        if times[0] != 0.0:
            raise ValueError(f"first sample must start at t=0, got t={times[0]}")
        if not np.all(np.diff(times) > 0.0):
            bad = int(np.flatnonzero(np.diff(times) <= 0.0)[0]) + 1
            raise ValueError(f"timestamps must be strictly increasing (sample {bad})")
        if self.dim == POSE_DIM:
            angles = np.linalg.norm(values[:, 3:6], axis=1)
            if np.any(angles >= np.pi):
                bad = int(np.argmax(angles >= np.pi))
                raise ValueError(
                    f"rotation-vector magnitude at sample {bad} must stay below pi"
                )

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def positions(self) -> np.ndarray:
        self._require_pose_dim()
        return self.values[:, :3]

    def orientations(self) -> np.ndarray:
        self._require_pose_dim()
        return self.values[:, 3:6]

    def pose(self, index: int) -> Pose:
        self._require_pose_dim()
        row = self.values[index]
        return Pose(row[:3], row[3:6])

    def start_pose(self) -> Pose:
        return self.pose(0)

    def end_pose(self) -> Pose:
        return self.pose(-1)

    def _require_pose_dim(self):
        if self.dim != POSE_DIM:
            raise ValueError(f"operation needs {POSE_DIM}-dimensional rows, got {self.dim}")


def resample(traj: Trajectory, n: int) -> Trajectory:
    """Linearly interpolate onto a uniform n-point grid over [0, duration].

    Endpoints are preserved exactly; interior samples interpolate each
    dimension independently.
    """
    if n < 2:
        raise ValueError("resampling needs at least two output samples")
    grid = np.linspace(0.0, traj.duration, n)
    cols = [np.interp(grid, traj.times, traj.values[:, d]) for d in range(traj.dim)]
    return Trajectory(grid, np.column_stack(cols))


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a 6-DoF trajectory as CSV with header ``t,px,py,pz,rx,ry,rz``."""
    if traj.dim != POSE_DIM:
        raise ValueError("CSV schema is fixed to 6-DoF pose trajectories")
    lines = [CSV_HEADER]
    for t, row in zip(traj.times, traj.values):
        fields = [str(float(t))] + [str(float(v)) for v in row]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trajectory(path) -> Trajectory:
    """Parse a trajectory CSV, reporting the offending row on any violation."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TrajectoryFormatError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise TrajectoryFormatError(f"{path}: empty file")
    if lines[0].strip() != CSV_HEADER:
        raise TrajectoryFormatError(
            f"{path}: row 1: expected header '{CSV_HEADER}', got '{lines[0].strip()}'"
        )
    times = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: expected {len(CSV_COLUMNS)} columns, got {len(parts)}"
            )
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: non-numeric value"
            ) from None
        if not all(np.isfinite(nums)):
            raise TrajectoryFormatError(f"{path}: row {lineno}: non-finite value")
        t, pose = nums[0], nums[1:]
        if not times and t != 0.0:
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: first sample must start at t=0, got t={t}"
            )
        if times and t <= times[-1]:
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: time {t} does not increase past {times[-1]}"
            )
        angle = float(np.linalg.norm(pose[3:6]))
        if angle >= np.pi:
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: rotation-vector magnitude {angle:.6f} exceeds pi"
            )
        times.append(t)
        rows.append(pose)
    if len(rows) < 2:
        raise TrajectoryFormatError(f"{path}: needs at least two data rows")
    return Trajectory(np.asarray(times), np.asarray(rows))
