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
SAMPLE_RATE = 100.0  # Hz, of generated demonstrations and regressed trajectories
GRASP_DURATION = 1.0  # s, the start hold of a demonstration
RELEASE_DURATION = 1.0  # s, the goal hold


class TrajectoryFormatError(ValueError):
    """A trajectory file violates the CSV schema (header, row shape, or ordering)."""


def _frozen_array(values, shape=None) -> np.ndarray:
    out = np.array(values, dtype=float)
    if shape is not None:
        out = out.reshape(shape)
    out.flags.writeable = False
    return out


def _memoized(memo: list, arrays, compute):
    """compute()'s tuple of arrays, kept in memo, a list of at most one entry.

    The entry is keyed by the dtype, shape and exact bytes of every array in
    arrays, so a hit returns what compute() would return for those inputs;
    a miss computes and replaces it.  The returned arrays are read-only.
    Each call returns the entry it matched or made, so threads racing on one
    memo at worst compute the same value twice.
    """
    key = [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]
    entry = memo[0] if memo else None
    if entry is None or entry[0] != key:
        entry = (key, compute())
        for a in entry[1]:
            a.flags.writeable = False
        memo[:] = [entry]
    return entry[1]


def _check_int(name: str, value, minimum: int) -> None:
    """Raise unless value is a Python or numpy integer, not a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def _check_real(name: str, value, positive: bool = True) -> None:
    """Raise unless value is a finite real number, not a bool, > 0 (>= 0 if not positive)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not ((0.0 < value if positive else 0.0 <= value) and value < np.inf):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value}")


def _json_numbers(name: str, value):
    """value, once checked to be a JSON number or a list of them; a bool never counts."""
    entries = value if isinstance(value, list) else [value]
    if not all(type(v) in (int, float) for v in entries):
        raise ValueError(f"{name} must hold only JSON numbers")
    return value


def _dot(a, b) -> np.ndarray:
    """Dot products over the last axis, broadcasting the rest.

    matmul takes them one (1,3)x(3,1) pair at a time, so each rounds exactly
    like the 1-D ``a @ b`` (and ``np.linalg.norm``) of a single vector.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rotvec_angles(rotvecs) -> np.ndarray:
    """Rotation-vector magnitudes over the last axis, sqrt(x*x + y*y + z*z)
    column by column: bitwise np.linalg.norm(rotvecs, axis=-1), which adds
    the three squares in that order, without its strided reduction.

    Pose and Trajectory both take them here, with one rounding, so every
    row a Trajectory accepts is a valid Pose.
    """
    x, y, z = (rotvecs[..., i] for i in range(3))
    return np.sqrt(x * x + y * y + z * z)


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
        angle = float(_rotvec_angles(rot))
        if angle >= np.pi:
            raise ValueError(
                f"rotation-vector magnitude {angle:.6f} rad must stay below pi"
            )

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.orientation])

    @classmethod
    def from_vector(cls, vec) -> "Pose":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (POSE_DIM,):
            raise ValueError(f"a pose needs {POSE_DIM} numbers, got {vec.size}")
        return cls(vec[:3], vec[3:])


@dataclass(frozen=True)
class TaskSpec:
    """Requested start and goal poses for one generalization."""

    start: Pose
    goal: Pose

    def start_vector(self) -> np.ndarray:
        return self.start.as_vector()

    def goal_vector(self) -> np.ndarray:
        return self.goal.as_vector()

    def to_dict(self) -> dict:
        return {"start": [float(v) for v in self.start_vector()],
                "goal": [float(v) for v in self.goal_vector()]}


@dataclass(frozen=True)
class PhaseSchedule:
    """Grasp/transport/release boundaries of a demonstration, in seconds."""

    grasp_end: float
    release_start: float
    duration: float

    def __post_init__(self):
        if not (0.0 < self.grasp_end < self.release_start < self.duration < np.inf):
            raise ValueError("phase boundaries must satisfy "
                             "0 < grasp_end < release_start < duration < inf")


def _first_violation(times: np.ndarray, values: np.ndarray):
    """(sample index, problem) for the first sample that breaks a trajectory
    rule, or None.

    The rules: every entry is finite, the first time is 0, times strictly
    increase, and 6-D rows keep their rotation-vector magnitude below pi.
    values is (n, D), or (K, n, D) series on the same times whose first
    violating series is reported.  Valid samples cost whole-array checks
    only; the offending one is located once one of them fails.
    """
    angles = (_rotvec_angles(values[..., 3:6]) if values.shape[-1] == POSE_DIM
              else np.zeros(values.shape[:-1]))
    if (np.isfinite(times).all() and np.isfinite(values).all()
            and (times[:1] == 0.0).all() and (np.diff(times) > 0.0).all()
            and (angles < np.pi).all()):
        return None
    finite = np.isfinite(times) & np.isfinite(values).all(axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf between non-finite times
        ordered = np.concatenate([times[:1] == 0.0, np.diff(times) > 0.0])
    valid = finite & ordered & (angles < np.pi)
    where = np.unravel_index(int(np.argmin(valid)), valid.shape)
    index = int(where[-1])
    if not finite[where]:
        problem = "non-finite value"
    elif index == 0 and not ordered[0]:
        problem = f"first sample must start at t=0, got t={times[0]}"
    elif not ordered[index]:
        problem = f"time {times[index]} does not increase past {times[index - 1]}"
    else:
        problem = f"rotation-vector magnitude {angles[where]:.6f} rad must stay below pi"
    return index, problem


def _check_samples(times: np.ndarray, values: np.ndarray) -> None:
    """Raise ValueError naming the first sample that breaks a _first_violation rule."""
    found = _first_violation(times, values)
    if found is not None:
        raise ValueError("sample {}: {}".format(*found))


@dataclass(frozen=True)
class Trajectory:
    """A time-indexed series of vectors, one row per sample.

    ``values`` holds one pose row (or a lower-dimensional test vector) per
    timestamp; pose columns are read through positions() and orientations(),
    which raise for any other row size.  Samples keep _first_violation's rules.
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
        _check_samples(times, values)

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

    def _require_pose_dim(self):
        if self.dim != POSE_DIM:
            raise ValueError(f"operation needs {POSE_DIM}-dimensional rows, got {self.dim}")


def resample(traj: Trajectory, n: int) -> Trajectory:
    """Linearly interpolate onto a uniform n-point grid over [0, duration].

    Endpoints are preserved exactly; interior samples interpolate each
    dimension independently.
    """
    return Trajectory(*_resampled(traj.times, traj.values, n))


def _resampled(times: np.ndarray, values: np.ndarray, n: int):
    """(grid, values on it) for resample(): values (..., len(times), D), a
    stack of series on one time grid, as a new C-contiguous array.  Every
    column at once takes np.interp's slope * (x - x_j) + y_j from knot j,
    and its copy of y_j on a knot and at the end."""
    if n < 2:
        raise ValueError("resampling needs at least two output samples")
    grid = np.linspace(0.0, float(times[-1]), n)
    if np.array_equal(grid, times):
        return grid, np.array(values, dtype=float, order="C")
    j = np.minimum(np.searchsorted(times, grid, side="right") - 1, len(times) - 2)
    columns = np.swapaxes(np.asarray(values, dtype=float), -1, -2)
    y0, y1 = np.take(columns, j, axis=-1), np.take(columns, j + 1, axis=-1)
    out = (y1 - y0) / (times[j + 1] - times[j]) * (grid - times[j]) + y0
    on_knot = grid == times[j]
    out[..., on_knot] = y0[..., on_knot]
    out[..., -1] = y1[..., -1]
    return grid, np.ascontiguousarray(np.swapaxes(out, -1, -2))


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a 6-DoF trajectory as CSV with header ``t,px,py,pz,rx,ry,rz``."""
    rows = np.column_stack([traj.times, traj.positions(), traj.orientations()]).tolist()
    lines = [CSV_HEADER] + [",".join(map(str, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trajectory(path) -> Trajectory:
    """Parse a trajectory CSV, reporting the offending row on any violation."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TrajectoryFormatError(f"{path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise TrajectoryFormatError(f"{path}: empty file")
    if lines[0].strip() != CSV_HEADER:
        raise TrajectoryFormatError(
            f"{path}: row 1: expected header '{CSV_HEADER}', got '{lines[0].strip()}'"
        )
    rows, row_numbers = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: expected {len(CSV_COLUMNS)} columns, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise TrajectoryFormatError(
                f"{path}: row {lineno}: non-numeric value"
            ) from None
        row_numbers.append(lineno)
    data = np.array(rows).reshape(-1, len(CSV_COLUMNS))
    found = _first_violation(data[:, 0], data[:, 1:])
    if found is not None:
        index, problem = found
        raise TrajectoryFormatError(f"{path}: row {row_numbers[index]}: {problem}")
    if len(rows) < 2:
        raise TrajectoryFormatError(f"{path}: needs at least two data rows")
    return Trajectory(data[:, 0], data[:, 1:])
