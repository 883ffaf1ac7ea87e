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

from .data import (POSE_DIM, Pose, TaskSpec, Trajectory, _check_int, _check_real, _dot,
                   _frozen_array, _json_numbers, _read_json, _resampled, _rotation, _trusted,
                   _valid_rows, _write_json)
from .metrics import FailureReason, _pose_stack, _targets, boundary_errors

REST_CLEARANCE = 0.003
SAMPLE_ATTEMPTS = 100  # endpoint draws before sample_task gives up


class SamplingError(ValueError):
    """sample_tasks() found no collision-free pose in SAMPLE_ATTEMPTS draws
    for the endpoint ("start" or "goal") of the task at position index."""

    def __init__(self, index: int, endpoint: str):
        self.index = index
        self.reason = f"{endpoint}: no collision-free rest pose found in {SAMPLE_ATTEMPTS} draws"
        super().__init__(f"generator {index}, {self.reason}")


@dataclass(frozen=True)
class Slab:
    """An axis-aligned box obstacle: two opposite corners, stored as read-only copies."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = _frozen_array(self.min_corner, 3)
        hi = _frozen_array(self.max_corner, 3)
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
    """Obstacles plus the task generator's sampling ranges; box_dims is a read-only copy."""

    slabs: tuple
    box_dims: np.ndarray
    levels: tuple
    length_range: tuple

    def __post_init__(self):
        object.__setattr__(self, "slabs", tuple(self.slabs))
        dims = _frozen_array(self.box_dims, 3)
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
        for i, slab in enumerate(self.slabs):
            if not isinstance(slab, Slab):
                raise TypeError(f"slab {i} must be a Slab, got {type(slab).__name__}")
        # built once: the collision arrays and the box's rest height on each level
        object.__setattr__(self, "_obstacles", _obstacles(dims, self.slabs))
        object.__setattr__(self, "_rest_heights",
                           np.array([rest_height(self, level) for level in self.levels]))


@dataclass(frozen=True)
class SuccessThresholds:
    """When a trial succeeds: both endpoints within max_boundary_pos_mm and
    max_boundary_rot_deg of their targets, and none of collision_samples
    poses resampled along the trajectory colliding."""

    max_boundary_pos_mm: float = 10.0
    max_boundary_rot_deg: float = 5.0
    collision_samples: int = 200

    def __post_init__(self):
        _check_real("max_boundary_pos_mm", self.max_boundary_pos_mm)
        _check_real("max_boundary_rot_deg", self.max_boundary_rot_deg)
        _check_int("collision_samples", self.collision_samples, 2)


# e_i x v is a signed permutation of v: entry c is _CROSS_SIGN[i, c] times
# entry _CROSS_INDEX[i, c] of v padded with a trailing 0.
_CROSS_INDEX = np.array([[3, 2, 1], [2, 3, 0], [1, 0, 3]])
_CROSS_SIGN = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 1.0]])


def _obstacles(box_dims, slabs):
    """_collision_mask()'s arrays: half the box (3,), slab centers and half extents (S, 3)."""
    return (0.5 * np.asarray(box_dims, dtype=float).reshape(3),
            np.array([s.center for s in slabs]).reshape(-1, 3),
            np.array([s.half_extents for s in slabs]).reshape(-1, 3))


def collision_mask(positions, rotvecs, box_dims, slabs) -> np.ndarray:
    """(N, S) bool: does the box at pose n touch or overlap slab s?

    Separating-axis test of N oriented boxes against S axis-aligned slabs,
    all at once, in two stages over the 15 candidate axes of a pair:

    1. Every pair is tested on the slab's 3 face normals, slab-major in
       (S, N) arrays, one world axis at a time.  On a world axis e_i the
       norm is 1, the slab radius is half-extent i, the projection is
       delta_i and e_i @ R is row i of R: each product has a 0 or 1
       factor, so these are the very floats a full 15-axis test computes.
    2. The pairs no face normal separates (a few per thousand on the
       benchmark's trajectories) are tested on the 3 box axes and their 9
       cross products with the world axes.  A near-parallel edge pair
       (cross product norm < 1e-9) is skipped, since the face axes cover
       its projection.

    Every dot product goes through matmul one (1,3)x(3,1) pair at a time,
    in both stages, so it rounds like the 1-D ``@`` of a scalar test and
    the mask is bitwise the one-stage test's.  Touching contact counts as
    collision.  positions and rotvecs must hold the same number of finite
    rows.
    """
    return _collision_mask(positions, rotvecs, *_obstacles(box_dims, slabs))


def _collision_mask(positions, rotvecs, half_box, centers, half_slabs) -> np.ndarray:
    """collision_mask() on the arrays _obstacles() builds.

    It works in place where it can: |R| is taken on the (N, 3, 3) stack
    that as_matrix() returns, stage 1 runs each face axis through two
    reused (S, N) buffers and frees them, and stage 2 rebuilds the signed
    rotations of its P pairs alone from their rotation vectors (scipy
    converts row by row, so these are rows of the full stack bit for bit).
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    # copy: scipy rejects the read-only arrays Pose and Trajectory hand out
    rotvecs = np.array(rotvecs, dtype=float).reshape(-1, 3)
    if len(positions) != len(rotvecs):
        raise ValueError(f"positions {positions.shape} and rotvecs {rotvecs.shape} "
                         "hold different numbers of poses")
    if not (np.isfinite(positions).all() and np.isfinite(rotvecs).all()):
        finite = np.isfinite(positions).all(axis=1) & np.isfinite(rotvecs).all(axis=1)
        raise ValueError(f"pose {int(np.argmin(finite))}: position and rotation "
                         "vector must be finite")
    rot = _rotation().from_rotvec(rotvecs).as_matrix()
    face_r_box = _dot(np.abs(rot, out=rot), half_box).T  # (3, N): the box's support on e_i
    apart = np.zeros((len(centers), len(positions)), dtype=bool)  # (S, N)
    gap, reach = np.empty(apart.shape), np.empty(apart.shape)
    for i, p in enumerate(np.ascontiguousarray(positions.T)):
        np.abs(np.subtract(p, centers[:, i, None], out=gap), out=gap)
        apart |= gap > np.add(half_slabs[:, i, None], face_r_box[i], out=reach)

    del rot, gap, reach  # stage 1's |R| and buffers, freed before stage 2 allocates
    slab, pose = np.nonzero(~apart)  # the P pairs no face normal separates
    if not len(pose):
        return ~apart.T
    rot = _rotation().from_rotvec(rotvecs[pose]).as_matrix()
    box_axes = np.swapaxes(rot, 1, 2)  # row j is the box's axis j
    padded = np.concatenate([box_axes, np.zeros((len(pose), 3, 1))], axis=2)
    edges = np.swapaxes(padded[:, :, _CROSS_INDEX] * _CROSS_SIGN, 1, 2)  # e_i x axis j
    axes = np.concatenate([box_axes, edges.reshape(-1, 9, 3)], axis=1)  # (P, 12, 3)
    norms = np.sqrt(_dot(axes, axes))
    usable = norms >= 1e-9
    axes = axes / np.where(usable, norms, 1.0)[..., None]

    r_slab = _dot(np.abs(axes), half_slabs[slab][:, None, :])
    r_box = _dot(np.abs(axes[:, :, None, :] @ rot[:, None])[:, :, 0, :], half_box)
    proj = _dot(axes, (positions[pose] - centers[slab])[:, None, :])
    separated = (usable & (np.abs(proj) > r_slab + r_box)).any(axis=1)
    apart[slab[separated], pose[separated]] = True
    return ~apart.T


def scene_collides(pose: Pose, scene: Scene) -> bool:
    """Does the box at pose touch or overlap any slab of the scene?"""
    return bool(_collision_mask(pose.position, pose.orientation, *scene._obstacles).any())


def _verdicts(sampled: np.ndarray, scene: Scene, boundaries, thresholds) -> list:
    """(flag, reason) of each trajectory from its (T, collision_samples, 6)
    resampled poses and its (T, 2, 2) metrics.boundary_errors(); all poses go
    through one collision_mask call, as a pose's row does not depend on the rest."""
    poses = sampled.reshape(-1, 6)
    hits = _collision_mask(poses[:, :3], poses[:, 3:], *scene._obstacles)
    limits = np.array([thresholds.max_boundary_pos_mm, thresholds.max_boundary_rot_deg])
    collided = hits.reshape(len(sampled), -1).any(axis=1).tolist()
    missed = (boundaries > limits).any(axis=(1, 2)).tolist()
    return [(False, FailureReason.COLLISION) if hit
            else (False, FailureReason.BOUNDARY) if miss
            else (True, FailureReason.NONE)
            for hit, miss in zip(collided, missed)]


def trajectory_success(traj: Trajectory, scene: Scene, task: TaskSpec,
                       thresholds: SuccessThresholds = SuccessThresholds()):
    """(flag, reason): collision-free at sampled poses and boundary within bounds.

    traj's first and last rows are scored against task's start and goal
    (metrics.boundary_errors), and an error equal to its threshold passes.
    collision_samples poses, evenly spaced in time, are checked for
    collision, which outranks a boundary failure.  This is _verdicts() for
    a stack of one; a task of another type is a TypeError naming its type."""
    if not isinstance(task, TaskSpec):
        raise TypeError(f"task must be a TaskSpec, got {type(task).__name__}")
    times, values = _pose_stack(traj)
    return _verdicts(_resampled(times, values, thresholds.collision_samples)[1], scene,
                     boundary_errors(values[:, [0, -1]], _targets([task])), thresholds)[0]


def rest_height(scene: Scene, level: float) -> float:
    """Box-center height when resting on a level, including hover clearance."""
    return level + 0.5 * float(scene.box_dims[2]) + REST_CLEARANCE


def _yawed_orientations(bases: np.ndarray, yaws) -> np.ndarray:
    """Each (k, 3) base rotation vector turned by its yaw about vertical."""
    turns = np.zeros((len(yaws), 3))
    turns[:, 2] = yaws
    rotation = _rotation()
    return (rotation.from_rotvec(turns) * rotation.from_rotvec(bases)).as_rotvec()


def sample_tasks(scene: Scene, variation: str, rngs, base_start: Pose,
                 base_goal: Pose) -> list:
    """One task per generator, each drawn exactly as sample_task draws it.

    Draws run in rounds: in each, every task still missing an endpoint
    makes one draw from its own generator, the round's yaws are composed
    in one Rotation product, and its candidate poses are checked in one
    collision_mask call.  A candidate is its base's pose vector with the
    drawn length and the rest height of the drawn level put in, both taken
    by indexing (the scene's rest heights are computed once per Scene).
    A generator makes the same draws in the same order as on its own (the
    start's draws, then the goal's), and a pose's collision row does not
    depend on the other poses in its call, so task k is
    sample_task(scene, variation, rngs[k], base_start, base_goal).
    The generators must be distinct objects: one passed twice is a ValueError.
    A generator that spends SAMPLE_ATTEMPTS draws on one endpoint raises
    SamplingError, naming the lowest such position in its round.

    Each accepted endpoint is written once into a (T, 2, 6) block, rows
    [start, goal] of pose vectors [position, rotation vector], which is
    frozen read-only after the last round.  The whole block is checked
    once against Pose's rules (_valid_rows), and every Pose, whose arrays
    are views of its block row, and every TaskSpec is built on the trusted
    route.  A block that fails goes through Pose(...), which raises its
    error.
    """
    if variation not in ("translational", "combined"):
        raise ValueError(f"unknown variation '{variation}'")
    if len({id(rng) for rng in rngs}) < len(rngs):
        raise ValueError("each task needs a generator of its own; one was passed twice")
    combined = variation == "combined"
    (low, high), heights = scene.length_range, scene._rest_heights
    n_levels = len(heights)
    bases = np.concatenate([base_start.position, base_start.orientation,
                            base_goal.position, base_goal.orientation]).reshape(2, POSE_DIM)
    block = np.empty((len(rngs), 2, POSE_DIM))
    found = [0] * len(rngs)  # endpoints accepted, so the side (0 start, 1 goal) being drawn
    draws = [0] * len(rngs)  # draws spent on the endpoint being sampled
    pending = list(range(len(rngs)))
    while pending:
        lengths, levels, yaws = [], [], []
        for k in pending:
            if draws[k] == SAMPLE_ATTEMPTS:
                raise SamplingError(k, ("start", "goal")[found[k]])
            draws[k] += 1
            rng = rngs[k]
            lengths.append(rng.uniform(low, high))
            levels.append(rng.integers(n_levels))
            if combined:
                yaws.append(rng.uniform(-np.pi / 4.0, np.pi / 4.0))
        candidates = bases.take([found[k] for k in pending], axis=0)
        candidates[:, 0] = lengths
        candidates[:, 2] = heights.take(levels)
        positions, rotations = candidates[:, :3], candidates[:, 3:]
        if combined:
            rotations[:] = _yawed_orientations(rotations, yaws)
        hits = _collision_mask(positions, rotations, *scene._obstacles).any(axis=1)
        for row, (k, hit) in enumerate(zip(pending, hits.tolist())):
            if not hit:
                block[k, found[k]] = candidates[row]
                found[k] += 1
                draws[k] = 0
        pending = [k for k in pending if found[k] < 2]
    block.flags.writeable = False  # so every view of it is read-only too
    if not _valid_rows(block):
        return [TaskSpec(Pose(start[:3], start[3:]), Pose(goal[:3], goal[3:]))
                for start, goal in block]
    # Pose's rules, checked on the whole block above; TaskSpec's, as both are Poses
    halves = iter(block.reshape(-1, 3))  # each endpoint's position, then its rotation vector
    poses = iter([_trusted(Pose, {"position": position, "orientation": rotation})
                  for position, rotation in zip(halves, halves)])
    return [_trusted(TaskSpec, {"start": start, "goal": goal}) for start, goal in zip(poses, poses)]


def sample_task(scene: Scene, variation: str, rng, base_start: Pose,
                base_goal: Pose) -> TaskSpec:
    """Draw start and goal poses over the scene's (length, level) ranges.

    Translational tasks keep the base orientations exactly; combined tasks
    additionally yaw each endpoint independently by U(-pi/4, pi/4) about
    vertical.  Each draw takes a length, then a level, then (combined) a
    yaw from rng; draws that would rest inside an obstacle are rejected,
    and SAMPLE_ATTEMPTS rejections of one endpoint raise ValueError.
    """
    return sample_tasks(scene, variation, [rng], base_start, base_goal)[0]


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


def _triple(name: str, value):
    """value, once checked to be a list of exactly 3 JSON numbers."""
    if not (isinstance(_json_numbers(name, value), list) and len(value) == 3):
        raise ValueError(f"{name} must hold exactly 3 numbers")
    return value


def _list(name: str, value, items: str) -> list:
    """value, once checked to be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of {items}")
    return value


def _slab(i: int, entry) -> Slab:
    """Slab i of a scene document; every error names the slab."""
    if not isinstance(entry, dict):
        raise ValueError(f'slab {i} must be an object with "min" and "max"')
    try:
        corners = [_triple(f"slab {i} {key}", entry[key]) for key in ("min", "max")]
    except KeyError as exc:
        raise ValueError(f"slab {i}: scene JSON missing field: {exc}") from exc
    try:
        return Slab(*corners)
    except ValueError as exc:
        raise ValueError(f"slab {i}: {exc}") from exc


def scene_from_dict(obj: dict) -> Scene:
    try:
        slabs = tuple(_slab(i, entry)
                      for i, entry in enumerate(_list("slabs", obj["slabs"], "slab objects")))
        return Scene(slabs, _triple("box_dims", obj["box_dims"]),
                     *(_list(key, _json_numbers(key, obj[key]), "numbers")
                       for key in ("levels", "length_range")))
    except KeyError as exc:
        raise ValueError(f"scene JSON missing field: {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"scene JSON invalid: {exc}") from exc


def save_scene(scene: Scene, path) -> None:
    """Write the scene as scene_to_dict's JSON object."""
    _write_json(path, scene_to_dict(scene))


def load_scene(path) -> Scene:
    """Read a scene file save_scene wrote; an invalid one is a ValueError
    prefixed with the path."""
    return _read_json(path, scene_from_dict)
