"""Synthetic shelf world: slab obstacles, collision checks, task sampling.

The default scene is an open-front cabinet: a base board, a back wall, two
side panels, and a low lip across the middle of the base board.  Levels
give the resting surface heights the task sampler draws from; the box
rests hovering a small clearance above a level so contact never counts as
collision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .data import (Pose, TaskSpec, Trajectory, _check_int, _check_real, _json_numbers,
                   _read_json, _write_json, resample)
from .metrics import FailureReason, boundary_error

REST_CLEARANCE = 0.003
SAMPLE_ATTEMPTS = 100  # endpoint draws before sample_task gives up


@dataclass(frozen=True)
class Slab:
    """An axis-aligned box obstacle given by two opposite corners."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=float).reshape(3)
        hi = np.asarray(self.max_corner, dtype=float).reshape(3)
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("slab corners must be finite")
        if np.any(hi <= lo):
            raise ValueError("slab max corner must exceed min corner on every axis")

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min_corner + self.max_corner)

    @property
    def half_extents(self) -> np.ndarray:
        return 0.5 * (self.max_corner - self.min_corner)


@dataclass(frozen=True)
class Scene:
    """Obstacles plus the sampling ranges used by the task generator."""

    slabs: tuple
    box_dims: np.ndarray
    levels: tuple
    length_range: tuple

    def __post_init__(self):
        object.__setattr__(self, "slabs", tuple(self.slabs))
        dims = np.asarray(self.box_dims, dtype=float).reshape(3)
        dims.flags.writeable = False
        object.__setattr__(self, "box_dims", dims)
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        object.__setattr__(self, "length_range",
                           tuple(float(v) for v in self.length_range))
        if not (np.isfinite(dims).all() and (dims > 0.0).all()):
            raise ValueError("box dimensions must be finite and positive")
        if not (self.levels and np.isfinite(self.levels).all()):
            raise ValueError("scene needs at least one level height, all finite")
        if (len(self.length_range) != 2 or not np.isfinite(self.length_range).all()
                or self.length_range[0] >= self.length_range[1]):
            raise ValueError("length_range must be an increasing, finite (min, max) pair")


@dataclass(frozen=True)
class SuccessThresholds:
    max_boundary_pos_mm: float = 10.0
    max_boundary_rot_deg: float = 5.0
    collision_samples: int = 200

    def __post_init__(self):
        _check_real("max_boundary_pos_mm", self.max_boundary_pos_mm)
        _check_real("max_boundary_rot_deg", self.max_boundary_rot_deg)
        _check_int("collision_samples", self.collision_samples, 2)


def _dot(a, b) -> np.ndarray:
    """Dot products over the last axis, broadcasting the rest.

    matmul takes them one (1,3)x(3,1) pair at a time, so each rounds exactly
    like the 1-D ``a @ b`` of a single pose.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def collision_mask(positions, rotvecs, box_dims, slabs) -> np.ndarray:
    """(N, S) bool: does the box at pose n touch or overlap slab s?

    Separating-axis test of N oriented boxes against S axis-aligned slabs,
    all at once.  Each pose has 15 candidate axes: the 3 slab face normals,
    the 3 box axes and their 9 cross products.  A near-parallel edge pair
    (cross product norm < 1e-9) is skipped, since the face axes cover its
    projection.  Touching contact counts as collision.
    """
    positions = np.array(positions, dtype=float).reshape(-1, 3)
    # copy: scipy rejects the read-only arrays Pose and Trajectory hand out
    rot = Rotation.from_rotvec(np.array(rotvecs, dtype=float).reshape(-1, 3)).as_matrix()
    n = len(positions)
    half_box = 0.5 * np.asarray(box_dims, dtype=float).reshape(3)
    centers = np.array([s.center for s in slabs]).reshape(-1, 3)
    half_slabs = np.array([s.half_extents for s in slabs]).reshape(-1, 3)

    basis = np.eye(3)
    box_axes = np.swapaxes(rot, 1, 2)  # row j is the box's axis j
    edges = np.cross(basis[None, :, None, :], box_axes[:, None, :, :]).reshape(n, 9, 3)
    axes = np.concatenate([np.broadcast_to(basis, (n, 3, 3)), box_axes, edges], axis=1)
    norms = np.sqrt(_dot(axes, axes))
    usable = norms >= 1e-9
    axes = axes / np.where(usable, norms, 1.0)[..., None]

    delta = positions[:, None, :] - centers  # (N, S, 3)
    r_slab = _dot(np.abs(axes)[:, :, None, :], half_slabs)  # (N, 15, S)
    r_box = _dot(np.abs(axes[:, :, None, :] @ rot[:, None])[:, :, 0, :], half_box)
    proj = _dot(axes[:, :, None, :], delta[:, None, :, :])
    separated = usable[..., None] & (np.abs(proj) > r_slab + r_box[..., None])
    return ~separated.any(axis=1)


def box_collides(pose: Pose, box_dims, slab: Slab) -> bool:
    """Does the box at pose touch or overlap the slab?  See collision_mask."""
    return bool(collision_mask(pose.position, pose.orientation, box_dims, (slab,))[0, 0])


def scene_collides(pose: Pose, scene: Scene) -> bool:
    """Does the box at pose touch or overlap any slab of the scene?"""
    return bool(collision_mask(pose.position, pose.orientation, scene.box_dims,
                               scene.slabs).any())


def trajectory_success(traj: Trajectory, scene: Scene, task: TaskSpec,
                       thresholds: SuccessThresholds = SuccessThresholds()):
    """(flag, reason): collision-free at sampled poses and boundary within bounds.

    All sampled poses go through one collision_mask call.
    """
    sampled = resample(traj, thresholds.collision_samples)
    if collision_mask(sampled.positions(), sampled.orientations(), scene.box_dims,
                      scene.slabs).any():
        return False, FailureReason.COLLISION
    (start_mm, start_deg), (goal_mm, goal_deg) = boundary_error(traj, task)
    if (start_mm > thresholds.max_boundary_pos_mm
            or goal_mm > thresholds.max_boundary_pos_mm
            or start_deg > thresholds.max_boundary_rot_deg
            or goal_deg > thresholds.max_boundary_rot_deg):
        return False, FailureReason.BOUNDARY
    return True, FailureReason.NONE


def rest_height(scene: Scene, level: float) -> float:
    """Box-center height when resting on a level, including hover clearance."""
    return level + 0.5 * float(scene.box_dims[2]) + REST_CLEARANCE


def _yawed_orientation(base: Pose, yaw: float) -> np.ndarray:
    turned = Rotation.from_rotvec([0.0, 0.0, yaw]) * Rotation.from_rotvec(np.array(base.orientation))
    return turned.as_rotvec()


def _sample_endpoint(scene: Scene, variation: str, rng, base: Pose) -> Pose:
    for _ in range(SAMPLE_ATTEMPTS):
        length = float(rng.uniform(*scene.length_range))
        level = scene.levels[int(rng.integers(len(scene.levels)))]
        position = np.array([length, base.position[1], rest_height(scene, level)])
        if variation == "combined":
            yaw = float(rng.uniform(-np.pi / 4.0, np.pi / 4.0))
            orientation = _yawed_orientation(base, yaw)
        else:
            orientation = base.orientation
        pose = Pose(position, orientation)
        if not scene_collides(pose, scene):
            return pose
    raise ValueError(f"no collision-free rest pose found in {SAMPLE_ATTEMPTS} draws")


def sample_task(scene: Scene, variation: str, rng, base_start: Pose,
                base_goal: Pose) -> TaskSpec:
    """Draw start and goal poses over the scene's (length, level) ranges.

    Translational tasks keep the base orientations exactly; combined tasks
    additionally yaw each endpoint independently by U(-pi/4, pi/4) about
    vertical.  Draws that would rest inside an obstacle are rejected.
    """
    if variation not in ("translational", "combined"):
        raise ValueError(f"unknown variation '{variation}'")
    start = _sample_endpoint(scene, variation, rng, base_start)
    goal = _sample_endpoint(scene, variation, rng, base_goal)
    return TaskSpec(start, goal)


def default_scene() -> Scene:
    """Open-front cabinet: base board, back wall, side panels, roof, middle lip.

    The roof sits 12 mm above a box resting on the upper level, so sagging
    or bulging transports scrape it while clean level transfers clear it.
    """
    slabs = (
        Slab((-0.07, -0.02, -0.02), (0.87, 0.45, 0.0)),    # base board
        Slab((-0.07, -0.02, 0.0), (0.87, 0.0, 0.555)),     # back wall
        Slab((-0.07, 0.0, 0.0), (-0.05, 0.45, 0.555)),     # left side panel
        Slab((0.85, 0.0, 0.0), (0.87, 0.45, 0.555)),       # right side panel
        Slab((-0.07, -0.02, 0.535), (0.87, 0.45, 0.555)),  # roof
        Slab((0.395, 0.0, 0.0), (0.405, 0.45, 0.02)),      # lip between the bays
    )
    return Scene(slabs, (0.20, 0.15, 0.12), (0.0, 0.40), (0.10, 0.70))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "slabs": [
            {"min": [float(v) for v in s.min_corner],
             "max": [float(v) for v in s.max_corner]}
            for s in scene.slabs
        ],
        "box_dims": [float(v) for v in scene.box_dims],
        "levels": [float(v) for v in scene.levels],
        "length_range": [float(v) for v in scene.length_range],
    }


def scene_from_dict(obj: dict) -> Scene:
    try:
        slabs = tuple(Slab(*(_json_numbers(f"slab {i} {key}", s[key]) for key in ("min", "max")))
                      for i, s in enumerate(obj["slabs"]))
        return Scene(slabs, *(_json_numbers(key, obj[key])
                              for key in ("box_dims", "levels", "length_range")))
    except KeyError as exc:
        raise ValueError(f"scene JSON missing field: {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"scene JSON invalid: {exc}") from exc


def save_scene(scene: Scene, path) -> None:
    _write_json(path, scene_to_dict(scene))


def load_scene(path) -> Scene:
    return _read_json(path, scene_from_dict)
