import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from gmmgen.data import Pose, TaskSpec, Trajectory, _dot, _trusted, resample
from gmmgen.metrics import FailureReason
from gmmgen.reparam import ReparamConfig
from gmmgen.scene import (REST_CLEARANCE, SAMPLE_ATTEMPTS, SamplingError, Scene, Slab,
                          SuccessThresholds, _collision_mask, _verdicts, collision_mask,
                          default_scene, load_scene, rest_height, sample_task, sample_tasks,
                          save_scene, scene_collides, scene_to_dict, trajectory_success)

from conftest import mutated
from helpers import compiled_values

UNIT_BOX = (1.0, 1.0, 1.0)
ORIGIN = Pose([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
# every slab the hand cases below use
HAND_SLABS = (
    Slab((0.49, -1, -1), (1, 1, 1)), Slab((0.51, -1, -1), (1, 1, 1)),
    Slab((0.5, -1, -1), (1, 1, 1)), Slab((5, 5, 5), (6, 6, 6)),
    Slab((-1.0, 0.09, -1.0), (1.0, 1.0, 1.0)), Slab((-1.0, 0.11, -1.0), (1.0, 1.0, 1.0)),
    Slab((0.138, -1, -1), (1, 1, 1)), Slab((0.145, -1, -1), (1, 1, 1)),
)
ORACLE_CASES = (
    (default_scene().slabs, tuple(default_scene().box_dims)),
    (HAND_SLABS, UNIT_BOX),
    (HAND_SLABS, (0.2, 0.1, 0.1)),
    (HAND_SLABS, (0.2, 0.2, 0.2)),
)


def oracle_box_collides(pose: Pose, box_dims, slab: Slab) -> bool:
    """Scalar separating-axis test, one axis at a time: the reference for
    the batched collision_mask.

    Checks the 3 slab face normals, the 3 box axes, and their 9 cross
    products; touching contact counts as collision.
    """
    half_box = 0.5 * np.asarray(box_dims, dtype=float).reshape(3)
    rot = Rotation.from_rotvec(np.array(pose.orientation)).as_matrix()
    delta = pose.position - slab.center
    half_slab = slab.half_extents

    axes = [np.eye(3)[i] for i in range(3)]
    axes += [rot[:, j] for j in range(3)]
    for i in range(3):
        for j in range(3):
            axes.append(np.cross(np.eye(3)[i], rot[:, j]))
    for axis in axes:
        norm = np.linalg.norm(axis)
        if norm < 1e-9:
            continue  # near-parallel edge pair, projection covered by face axes
        axis = axis / norm
        r_slab = float(np.abs(axis) @ half_slab)
        r_box = float(np.abs(axis @ rot) @ half_box)
        if abs(float(axis @ delta)) > r_slab + r_box:
            return False
    return True


def oracle_mask(positions, rotvecs, box_dims, slabs) -> np.ndarray:
    return np.array([[oracle_box_collides(Pose(p, r), box_dims, slab) for slab in slabs]
                     for p, r in zip(positions, rotvecs)], dtype=bool).reshape(-1, len(slabs))


_unit = st.floats(-1.0, 1.0)
_direction = st.tuples(_unit, _unit, _unit).map(np.array).filter(
    lambda d: np.linalg.norm(d) > 1e-3)
# rotation vectors of any direction with magnitude up to just below pi
_random_rotvec = st.builds(lambda d, angle: angle * d / np.linalg.norm(d),
                           _direction, st.floats(0.0, np.pi - 1e-6))


def _quarter_turns(turns) -> np.ndarray:
    rot = Rotation.identity()
    for axis, sign in turns:
        rot = Rotation.from_rotvec(sign * 0.5 * np.pi * np.eye(3)[axis]) * rot
    return rot.as_rotvec()


# compositions of exact 90-degree turns map box axes onto world axes, so the
# near-parallel edge pairs of the norm < 1e-9 skip show up
_quarter_rotvec = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((-1.0, 1.0))), max_size=3,
).map(_quarter_turns).filter(lambda r: np.linalg.norm(r) < np.pi - 1e-9)


@st.composite
def _oracle_batches(draw):
    slabs, dims = draw(st.sampled_from(ORACLE_CASES))
    reach = 0.6 * np.linalg.norm(dims)
    positions, rotvecs = [], []
    for _ in range(draw(st.integers(1, 6))):
        # near one slab, so touching, overlapping and clear poses all occur
        slab = draw(st.sampled_from(slabs))
        offset = np.array(draw(st.tuples(_unit, _unit, _unit)))
        positions.append(slab.center + offset * (slab.half_extents + reach))
        rotvecs.append(draw(st.one_of(_random_rotvec, _quarter_rotvec)))
    return np.array(positions), np.array(rotvecs), dims, slabs


@settings(derandomize=True, max_examples=150)
@given(_oracle_batches())
def test_collision_mask_matches_scalar_oracle(batch):
    positions, rotvecs, dims, slabs = batch
    mask = collision_mask(positions, rotvecs, dims, slabs)
    assert mask.shape == (len(positions), len(slabs))
    assert np.array_equal(mask, oracle_mask(positions, rotvecs, dims, slabs))


_near_diagonal_yaw = st.builds(lambda sign, eps: sign * (np.pi / 4.0 + eps),
                               st.sampled_from((-1.0, 1.0)), st.floats(-1e-6, 1e-6))


@st.composite
def _near_face_poses(draw):
    """1-12 default-scene box poses whose support along a slab's face
    normal sits within 1 mm of that face, inside or outside; yaws are
    near +-pi/4 or anywhere in the task sampler's range."""
    scene = default_scene()
    half_box = 0.5 * scene.box_dims
    positions, rotvecs = [], []
    for _ in range(draw(st.integers(1, 12))):
        slab = draw(st.sampled_from(scene.slabs))
        yaw = draw(st.one_of(_near_diagonal_yaw, st.floats(-np.pi / 4.0, np.pi / 4.0)))
        rotvec = np.array([0.0, 0.0, yaw])
        support = np.abs(Rotation.from_rotvec(rotvec).as_matrix()) @ half_box
        axis, side = draw(st.integers(0, 2)), draw(st.sampled_from((-1.0, 1.0)))
        position = slab.center + np.array(draw(st.tuples(_unit, _unit, _unit))) * slab.half_extents
        position[axis] = (slab.center[axis] + side * (slab.half_extents[axis] + support[axis])
                          + draw(st.floats(-1e-3, 1e-3)))
        positions.append(position)
        rotvecs.append(rotvec)
    return np.array(positions), np.array(rotvecs)


@given(_near_face_poses())
def test_collision_mask_rows_do_not_depend_on_the_batch(poses):
    """A pose's row in an N-pose call is bitwise its row from a one-pose
    call; the round-based task sampler relies on it."""
    positions, rotvecs = poses
    scene = default_scene()
    mask = collision_mask(positions, rotvecs, scene.box_dims, scene.slabs)
    for k in range(len(positions)):
        one = collision_mask(positions[k:k + 1], rotvecs[k:k + 1], scene.box_dims, scene.slabs)
        assert np.array_equal(mask[k:k + 1], one)


_small_rotvec = st.builds(lambda d, angle: angle * d / np.linalg.norm(d),
                          _direction, st.floats(0.0, 1e-3))


@given(rotvecs=st.lists(st.one_of(_random_rotvec, _quarter_rotvec, _small_rotvec), min_size=1,
                        max_size=40),
       picks=st.lists(st.integers(0, 39), min_size=1, max_size=60))
def test_signed_rotations_rebuilt_from_picked_rotvecs_are_rows_of_the_full_stack(rotvecs,
                                                                                 picks):
    """Stage 2 of _collision_mask rebuilds the signed rotations of its pairs
    from their rotation vectors, in any order and with repeats; they are
    bitwise the rows of the full as_matrix() stack that stage 1 reads.
    Small angles take scipy's series branch."""
    rotvecs = np.array(rotvecs)
    pose = np.array(picks) % len(rotvecs)
    rebuilt = Rotation.from_rotvec(rotvecs[pose]).as_matrix()
    assert rebuilt.tobytes() == Rotation.from_rotvec(rotvecs).as_matrix()[pose].tobytes()


def oracle_single_stage_mask(positions, rotvecs, box_dims, slabs) -> np.ndarray:
    """The batched kernel in its former single-stage form, all 15 axes on
    every (pose, slab) pair: the bitwise reference for the two-stage
    collision_mask."""
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


def face_separated(positions, rotvecs, box_dims, slabs) -> np.ndarray:
    """(N, S) bool: is the pair separated along one of the slab's face
    normals?  The single-stage oracle's first 3 axes, written out."""
    rot = Rotation.from_rotvec(np.array(rotvecs, dtype=float)).as_matrix()
    support = _dot(np.abs(rot), 0.5 * np.asarray(box_dims, dtype=float))
    centers = np.array([s.center for s in slabs])
    half_slabs = np.array([s.half_extents for s in slabs])
    delta = np.asarray(positions, dtype=float)[:, None, :] - centers
    return (np.abs(delta) > half_slabs + support[:, None, :]).any(axis=2)


@given(_near_face_poses())
def test_two_stage_mask_matches_single_stage_oracle_near_faces(poses):
    positions, rotvecs = poses
    scene = default_scene()
    assert np.array_equal(collision_mask(positions, rotvecs, scene.box_dims, scene.slabs),
                          oracle_single_stage_mask(positions, rotvecs, scene.box_dims,
                                                   scene.slabs))


def test_two_stage_mask_matches_single_stage_oracle_on_trial_poses(model, scene, times,
                                                                   endpoints):
    """The 200-pose collision samples of 32 full and 32 ablated combined
    trials (seed 11), as trajectory_success checks them.  Some pairs there
    are separated only by a box axis or an edge axis, so the second stage
    decides pairs the first leaves open."""
    tasks = sample_tasks(scene, "combined", [np.random.default_rng([11, i]) for i in range(32)],
                         *endpoints)
    second_stage_only = 0
    for ablate in (False, True):
        for values in compiled_values(model, tasks, ReparamConfig(ablate_covariance=ablate),
                                      times):
            sampled = resample(Trajectory(times, values), 200)
            args = (sampled.positions(), sampled.orientations(), scene.box_dims, scene.slabs)
            mask = collision_mask(*args)
            assert np.array_equal(mask, oracle_single_stage_mask(*args))
            second_stage_only += int((~mask & ~face_separated(*args)).sum())
    assert second_stage_only > 0


def test_collision_mask_rejects_mismatched_pose_counts(scene):
    with pytest.raises(ValueError, match=r"positions \(4, 3\) and rotvecs \(3, 3\)"):
        collision_mask(np.zeros((4, 3)), np.zeros((3, 3)), scene.box_dims, scene.slabs)


@pytest.mark.parametrize("which,value", [(0, np.nan), (1, np.inf), (1, -np.inf)],
                         ids=["nan-position", "inf-rotvec", "minus-inf-rotvec"])
def test_collision_mask_rejects_non_finite_poses(scene, which, value):
    """A non-finite pose is an error naming its row, not a collision with
    every slab."""
    arrays = [np.full((5, 3), 0.2), np.zeros((5, 3))]
    arrays[which][3, 1] = value
    arrays[which][4, 0] = value
    with pytest.raises(ValueError, match="pose 3: .*finite"):
        collision_mask(*arrays, scene.box_dims, scene.slabs)


def test_collision_mask_matches_oracle_on_scene_poses(scene):
    rng = np.random.default_rng(5)
    positions = rng.uniform([-0.1, -0.1, -0.05], [0.9, 0.5, 0.6], (400, 3))
    rotvecs = rng.uniform(-1.0, 1.0, (400, 3))
    rotvecs[:100] = 0.0
    rotvecs[100:200, :2] = 0.0  # pure yaw, as the combined tasks draw
    mask = collision_mask(positions, rotvecs, scene.box_dims, scene.slabs)
    expected = oracle_mask(positions, rotvecs, scene.box_dims, scene.slabs)
    assert np.array_equal(mask, expected)
    assert 0 < mask.sum() < mask.size
    # the one-pose wrapper reads the same kernel
    for i in range(0, 400, 37):
        assert scene_collides(Pose(positions[i], rotvecs[i]), scene) == expected[i].any()


def test_collision_mask_empty_inputs(scene):
    none = np.zeros((0, 3))
    assert collision_mask(none, none, scene.box_dims, scene.slabs).shape == (0, 6)
    assert collision_mask(np.zeros((2, 3)), np.zeros((2, 3)), UNIT_BOX, ()).shape == (2, 0)


def test_separating_axis_hand_cases():
    # unit box at origin vs slab approaching along +x: 0.01 overlap vs 0.01
    # gap; touching faces count as collision; a far slab is clear
    slabs = (Slab((0.49, -1, -1), (1, 1, 1)), Slab((0.51, -1, -1), (1, 1, 1)),
             Slab((0.5, -1, -1), (1, 1, 1)), Slab((5, 5, 5), (6, 6, 6)))
    mask = collision_mask(ORIGIN.position, ORIGIN.orientation, UNIT_BOX, slabs)
    assert mask.tolist() == [[True, False, True, False]]
    # containment
    assert collision_mask([5.5, 5.5, 5.5], [0, 0, 0], UNIT_BOX, slabs[3:]).tolist() == [[True]]


def test_separating_axis_respects_yaw():
    # 0.2 x 0.1 x 0.1 box yawed 90 degrees: the long side turns into y
    yawed = [0.0, 0.0, np.pi / 2.0]
    dims = (0.2, 0.1, 0.1)
    near = Slab((-1.0, 0.09, -1.0), (1.0, 1.0, 1.0))
    far = Slab((-1.0, 0.11, -1.0), (1.0, 1.0, 1.0))
    mask = collision_mask(np.zeros((2, 3)), [yawed, ORIGIN.orientation], dims, (near, far))
    # only the yawed box reaches the near slab; the unrotated one clears it
    assert mask.tolist() == [[True, False], [False, False]]


def test_separating_axis_diagonal_support():
    # 45-degree yaw stretches the support along x to 0.1*sqrt(2) ~ 0.1414
    rotvecs = [[0.0, 0.0, np.pi / 4.0], ORIGIN.orientation]
    dims = (0.2, 0.2, 0.2)
    slabs = (Slab((0.138, -1, -1), (1, 1, 1)), Slab((0.145, -1, -1), (1, 1, 1)))
    mask = collision_mask(np.zeros((2, 3)), rotvecs, dims, slabs)
    # the same slabs straddle an axis-aligned box differently
    assert mask.tolist() == [[True, False], [False, False]]


def test_collision_monotone_in_box_scale():
    rng = np.random.default_rng(21)
    slab = Slab((-0.3, -0.2, -0.25), (0.3, 0.2, 0.25))
    for _ in range(200):
        pose = Pose(rng.uniform(-0.8, 0.8, 3), rng.uniform(-1.0, 1.0, 3))
        dims = rng.uniform(0.05, 0.4, 3)
        hits = [collision_mask(pose.position, pose.orientation, s * dims, (slab,))[0, 0]
                for s in (0.5, 1.0, 1.5, 2.5)]
        # growing the box never un-collides
        assert hits == sorted(hits)


def test_collision_never_misses_contained_points(scene):
    rng = np.random.default_rng(4)
    for _ in range(100):
        pose = Pose(rng.uniform([-0.1, -0.1, 0.0], [0.9, 0.5, 0.6]),
                    rng.uniform(-1.0, 1.0, 3))
        rot = Rotation.from_rotvec(np.array(pose.orientation)).as_matrix()
        corners = rot @ (0.5 * scene.box_dims * rng.uniform(-1.0, 1.0, (64, 3))).T
        points = pose.position[:, None] + corners
        hits = collision_mask(pose.position, pose.orientation, scene.box_dims, scene.slabs)[0]
        for slab, hit in zip(scene.slabs, hits):
            inside = np.all((points >= slab.min_corner[:, None])
                            & (points <= slab.max_corner[:, None]), axis=0)
            if inside.any():
                assert hit


def test_slab_and_scene_validation():
    with pytest.raises(ValueError):
        Slab((0, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        Scene((), (0.1, -0.1, 0.1), (0.0,), (0.0, 1.0))
    with pytest.raises(ValueError):
        Scene((), (0.1, 0.1, 0.1), (), (0.0, 1.0))
    with pytest.raises(ValueError):
        Scene((), (0.1, 0.1, 0.1), (0.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        SuccessThresholds(max_boundary_pos_mm=0.0)


def test_slab_and_scene_store_copies_of_the_callers_arrays(scene):
    """A caller's array edited after Slab(...) or Scene(...) changes nothing
    the object stores or caches: the corners and box_dims are read-only
    copies, so the collision half-box and rest heights keep matching."""
    lo, hi = np.zeros(3), np.ones(3)
    slab = Slab(lo, hi)
    lo[0] = 5.0
    hi[:] = -1.0
    assert slab.min_corner.tolist() == [0.0, 0.0, 0.0]
    assert slab.max_corner.tolist() == [1.0, 1.0, 1.0]
    dims = np.array(scene.box_dims)
    own = Scene(scene.slabs, dims, scene.levels, scene.length_range)
    dims[0] = 9.0
    assert np.array_equal(own.box_dims, scene.box_dims)
    assert np.array_equal(own._obstacles[0], scene._obstacles[0])
    assert np.array_equal(own._rest_heights, scene._rest_heights)
    for array in (slab.min_corner, slab.max_corner, own.box_dims):
        assert not array.flags.writeable


@pytest.mark.parametrize("field", ["max_boundary_pos_mm", "max_boundary_rot_deg"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_success_thresholds_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite and positive"):
        SuccessThresholds(**{field: value})


@pytest.mark.parametrize("field,index,value", [("box_dims", 1, np.nan),
                                               ("levels", 0, np.nan),
                                               ("length_range", 1, np.inf)])
def test_load_scene_rejects_non_finite(tmp_path, scene, field, index, value):
    obj = scene_to_dict(scene)
    obj[field][index] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="finite") as err:
        load_scene(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("edit,field", [
    (lambda obj: obj["box_dims"].pop(), "box_dims"),
    (lambda obj: obj["box_dims"].append(0.1), "box_dims"),
    (lambda obj: obj.__setitem__("box_dims", 0.2), "box_dims"),
    (lambda obj: obj["slabs"][2]["min"].pop(), "slab 2 min"),
    (lambda obj: obj["slabs"][4]["max"].append(0.1), "slab 4 max"),
    (lambda obj: obj["slabs"][0].__setitem__("max", 0.5), "slab 0 max"),
], ids=["box_dims-2", "box_dims-4", "box_dims-number", "slab-min-2", "slab-max-4",
        "slab-max-number"])
def test_load_scene_names_a_field_without_3_numbers(tmp_path, scene, edit, field):
    obj = scene_to_dict(scene)
    edit(obj)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as err:
        load_scene(path)
    assert str(err.value) == f"{path}: {field} must hold exactly 3 numbers"


@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj.__setitem__("levels", 0.4), "levels must be a list of numbers"),
    (lambda obj: obj.__setitem__("length_range", 0.5),
     "length_range must be a list of numbers"),
    (lambda obj: obj.__setitem__("slabs", {"min": [0, 0, 0], "max": [1, 1, 1]}),
     "slabs must be a list of slab objects"),
    (lambda obj: obj["slabs"].__setitem__(3, [[0, 0, 0], [1, 1, 1]]),
     'slab 3 must be an object with "min" and "max"'),
], ids=["levels-number", "length_range-number", "slabs-object", "slab-list"])
def test_load_scene_names_a_field_of_the_wrong_json_type(tmp_path, scene, edit, message):
    obj = scene_to_dict(scene)
    edit(obj)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as err:
        load_scene(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj["slabs"][2].pop("min"), "slab 2: scene JSON missing field: 'min'"),
    (lambda obj: obj["slabs"][5].pop("max"), "slab 5: scene JSON missing field: 'max'"),
    (lambda obj: obj["slabs"][1].__setitem__("max", obj["slabs"][1]["min"]),
     "slab 1: slab max corner must exceed min corner on every axis"),
    (lambda obj: obj["slabs"][3]["min"].__setitem__(2, 1.0),
     "slab 3: slab max corner must exceed min corner on every axis"),
    (lambda obj: obj["slabs"][4]["max"].__setitem__(0, float("inf")),
     "slab 4: slab corners must be finite"),
], ids=["min-missing", "max-missing", "equal-corners", "crossed-z", "infinite-corner"])
def test_load_scene_names_the_slab_in_every_slab_error(tmp_path, scene, edit, message):
    obj = scene_to_dict(scene)
    edit(obj)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as err:
        load_scene(path)
    assert str(err.value) == f"{path}: {message}"


def test_rest_height_includes_clearance(scene):
    assert rest_height(scene, 0.0) == pytest.approx(0.5 * 0.12 + REST_CLEARANCE)
    assert rest_height(scene, 0.40) == pytest.approx(0.40 + 0.063)


def arc_task(scene, x0=0.15, x1=0.65):
    y = 0.225
    z = rest_height(scene, 0.0)
    return TaskSpec(Pose([x0, y, z], [0.0, 0.0, 0.0]),
                    Pose([x1, y, z], [0.0, 0.0, 0.0]))


def arc_paths(task):
    """(slide, arc): a straight slide along the base board, which runs into
    the middle lip, and a 0.1 m lift that clears the lip under the roof."""
    start = task.start_vector()
    goal = task.goal_vector()
    slide = Trajectory([0.0, 7.0], np.vstack([start, goal]))
    up = start.copy(); up[2] += 0.1
    over = goal.copy(); over[2] += 0.1
    arc = Trajectory([0.0, 1.0, 6.0, 7.0], np.vstack([start, up, over, goal]))
    return slide, arc


def test_trajectory_success_reasons(scene):
    task = arc_task(scene)
    slide, arc = arc_paths(task)
    assert trajectory_success(slide, scene, task) == (False, FailureReason.COLLISION)
    assert trajectory_success(arc, scene, task) == (True, FailureReason.NONE)
    # collision-free but ending 50 mm short of the goal
    values = arc.values.copy()
    values[-1, 0] -= 0.05
    miss = Trajectory(arc.times, values)
    assert trajectory_success(miss, scene, task) == (False, FailureReason.BOUNDARY)
    # a non-pose trajectory is an error, not a failed trial
    flat = Trajectory([0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        trajectory_success(flat, scene, task)


@pytest.mark.parametrize("endpoint,unit", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["start_mm", "start_deg", "goal_mm", "goal_deg"])
@pytest.mark.parametrize("thresholds", [SuccessThresholds(), SuccessThresholds(0.25, 3.0)],
                         ids=["default", "custom"])
def test_trajectory_success_threshold_edges(scene, endpoint, unit, thresholds):
    """Each of the four boundary errors passes at its threshold and fails
    one float above it; a collision outranks an out-of-bound error.  The
    errors are set by hand, so this drives _verdicts, which owns the
    comparison trajectory_success makes."""
    slide, arc = arc_paths(arc_task(scene))
    limit = (thresholds.max_boundary_pos_mm, thresholds.max_boundary_rot_deg)[unit]

    def verdict(traj, error):
        errors = np.zeros((1, 2, 2))
        errors[0, endpoint, unit] = error
        sampled = resample(traj, thresholds.collision_samples).values[None]
        return _verdicts(sampled, scene, errors, thresholds)[0]

    above = np.nextafter(limit, np.inf)
    assert verdict(arc, limit) == (True, FailureReason.NONE)
    assert verdict(arc, above) == (False, FailureReason.BOUNDARY)
    assert verdict(slide, above) == (False, FailureReason.COLLISION)


@pytest.mark.parametrize("task", [((0.0, 0.0), (0.0, 0.0)), ORIGIN, None],
                         ids=["boundary", "pose", "none"])
def test_trajectory_success_rejects_a_task_of_another_type(scene, task):
    """trajectory_success computes the boundary errors from its task, so
    anything but a TaskSpec, the former boundary errors included, is a
    TypeError naming its type."""
    _, arc = arc_paths(arc_task(scene))
    with pytest.raises(TypeError, match=f"^task must be a TaskSpec, got {type(task).__name__}$"):
        trajectory_success(arc, scene, task)


def test_sample_task_translational_keeps_orientation(scene, endpoints):
    rng = np.random.default_rng(31)
    base_start, base_goal = endpoints
    for _ in range(20):
        task = sample_task(scene, "translational", rng, base_start, base_goal)
        assert np.array_equal(task.start.orientation, base_start.orientation)
        assert np.array_equal(task.goal.orientation, base_goal.orientation)
        assert task.start.position[1] == base_start.position[1]
        for pose in (task.start, task.goal):
            lo, hi = scene.length_range
            assert lo <= pose.position[0] <= hi
            assert pose.position[2] in [rest_height(scene, lv) for lv in scene.levels]
            assert not scene_collides(pose, scene)


def test_sample_task_combined_yaw_statistics(scene):
    rng = np.random.default_rng(12)
    base = Pose([0.15, 0.225, rest_height(scene, 0.0)], [0.0, 0.0, 0.0])
    yaws = []
    for _ in range(5000):
        task = sample_task(scene, "combined", rng, base, base)
        for pose in (task.start, task.goal):
            assert pose.orientation[0] == 0.0 and pose.orientation[1] == 0.0
            yaws.append(pose.orientation[2])
    yaws = np.asarray(yaws)
    assert yaws.min() > -np.pi / 4.0 and yaws.max() < np.pi / 4.0
    assert abs(yaws.mean()) < 0.02
    # both quartile signs show up in force: the draw is two-sided
    assert (yaws > 0).mean() == pytest.approx(0.5, abs=0.05)


def test_sample_task_deterministic(scene, endpoints):
    a = sample_task(scene, "combined", np.random.default_rng(77), *endpoints)
    b = sample_task(scene, "combined", np.random.default_rng(77), *endpoints)
    assert np.array_equal(a.start.as_vector(), b.start.as_vector())
    assert np.array_equal(a.goal.as_vector(), b.goal.as_vector())
    with pytest.raises(ValueError):
        sample_task(scene, "spiral", np.random.default_rng(0), *endpoints)


def oracle_sample_task(scene, variation, rng, base_start, base_goal):
    """The task sampler in its former one-endpoint-at-a-time form: the
    reference for sample_tasks' rounds."""
    if variation not in ("translational", "combined"):
        raise ValueError(f"unknown variation '{variation}'")
    poses = []
    for base in (base_start, base_goal):
        for _ in range(SAMPLE_ATTEMPTS):
            length = float(rng.uniform(*scene.length_range))
            level = scene.levels[int(rng.integers(len(scene.levels)))]
            position = np.array([length, base.position[1], rest_height(scene, level)])
            orientation = base.orientation
            if variation == "combined":
                yaw = float(rng.uniform(-np.pi / 4.0, np.pi / 4.0))
                orientation = (Rotation.from_rotvec([0.0, 0.0, yaw])
                               * Rotation.from_rotvec(np.array(base.orientation))).as_rotvec()
            pose = Pose(position, orientation)
            if not scene_collides(pose, scene):
                poses.append(pose)
                break
        else:
            raise ValueError(f"no collision-free rest pose found in {SAMPLE_ATTEMPTS} draws")
    return TaskSpec(*poses)


def task_bytes(task):
    return np.concatenate([task.start_vector(), task.goal_vector()]).tobytes()


def crowded_scene():
    """The default shelf with most of the upper level blocked, so many
    draws are rejected and tasks finish in different rounds."""
    scene = default_scene()
    block = Slab((0.05, 0.0, 0.42), (0.62, 0.45, 0.535))
    return Scene(scene.slabs + (block,), scene.box_dims, scene.levels, scene.length_range)


@pytest.mark.parametrize("make_scene", [default_scene, crowded_scene])
@pytest.mark.parametrize("mode", ["combined", "translational"])
def test_sample_tasks_draw_as_the_one_task_oracle(endpoints, make_scene, mode):
    """Per-trial generators, as run_benchmark seeds them: each task equals
    the former sampler's on a fresh default_rng([seed, i]), and each
    generator is left in the same state (its next draw agrees)."""
    scene = make_scene()
    for seed in (1, 2, 3):
        rngs = [np.random.default_rng([seed, i]) for i in range(24)]
        tasks = sample_tasks(scene, mode, rngs, *endpoints)
        for i, (rng, task) in enumerate(zip(rngs, tasks)):
            fresh = np.random.default_rng([seed, i])
            assert task_bytes(task) == task_bytes(oracle_sample_task(scene, mode, fresh,
                                                                     *endpoints))
            assert rng.random() == fresh.random()


@pytest.mark.parametrize("mode", ["combined", "translational"])
def test_sample_task_on_a_shared_generator_draws_as_before(scene, endpoints, mode):
    """One generator drawing task after task, as perfbench's adapt pool and
    the yaw statistics test use it."""
    rng, oracle_rng = np.random.default_rng(12), np.random.default_rng(12)
    for _ in range(40):
        assert task_bytes(sample_task(scene, mode, rng, *endpoints)) == task_bytes(
            oracle_sample_task(scene, mode, oracle_rng, *endpoints))
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("mode", ["combined", "translational"])
def test_sample_tasks_build_poses_only_for_kept_endpoints(monkeypatch, endpoints, mode):
    """A candidate that collides is dropped before it becomes a Pose, so
    every Pose built, on the trusted route, is a task's start or goal."""
    built, rejected = [], []

    def counted_trusted(cls, fields):
        obj = _trusted(cls, fields)
        if cls is Pose:
            built.append(obj)
        return obj

    def counted_mask(*args):
        hits = _collision_mask(*args)
        rejected.append(int(hits.any(axis=1).sum()))
        return hits

    monkeypatch.setattr("gmmgen.scene._trusted", counted_trusted)
    monkeypatch.setattr("gmmgen.scene._collision_mask", counted_mask)
    rngs = [np.random.default_rng([1, i]) for i in range(24)]
    tasks = sample_tasks(crowded_scene(), mode, rngs, *endpoints)
    assert sum(rejected) > 0 and len(built) == 2 * len(tasks) == 48
    assert [id(pose) for task in tasks for pose in (task.start, task.goal)] == list(map(id, built))


def test_sample_tasks_give_up_after_the_attempt_limit(endpoints):
    scene = default_scene()
    filled = Scene(scene.slabs + (Slab((-0.05, 0.0, 0.0), (0.85, 0.45, 0.535)),),
                   scene.box_dims, scene.levels, scene.length_range)
    rngs = [np.random.default_rng([0, i]) for i in range(3)]
    with pytest.raises(ValueError, match=f"in {SAMPLE_ATTEMPTS} draws"):
        sample_tasks(filled, "combined", rngs, *endpoints)
    assert sample_tasks(scene, "combined", [], *endpoints) == []


def filled_bays_scene():
    """The default shelf with both bays filled but for a window on the upper
    level about 2 cm long in x, which few draws hit: generators give up at
    different rounds, on either endpoint."""
    scene = default_scene()
    fill = (Slab((-0.05, 0.0, 0.0), (0.85, 0.45, 0.30)),
            Slab((-0.05, 0.0, 0.30), (0.44, 0.45, 0.535)),
            Slab((0.68, 0.0, 0.30), (0.85, 0.45, 0.535)))
    return Scene(scene.slabs + fill, scene.box_dims, scene.levels, scene.length_range)


def replayed_failure(scene, variation, rngs, base_start, base_goal):
    """(position, endpoint, endpoints found per generator) of the
    SamplingError sample_tasks raises, found by replaying each generator's
    draws round by round, one candidate at a time as oracle_sample_task
    draws them: in each round every generator still missing an endpoint
    draws once, in position order, until one has spent SAMPLE_ATTEMPTS
    draws on its endpoint."""
    found, draws = [0] * len(rngs), [0] * len(rngs)
    pending = list(range(len(rngs)))
    while pending:
        for k in pending:
            if draws[k] == SAMPLE_ATTEMPTS:
                return k, ("start", "goal")[found[k]], found
            draws[k] += 1
            rng, base = rngs[k], (base_start, base_goal)[found[k]]
            length = float(rng.uniform(*scene.length_range))
            level = scene.levels[int(rng.integers(len(scene.levels)))]
            orientation = base.orientation
            if variation == "combined":
                yaw = float(rng.uniform(-np.pi / 4.0, np.pi / 4.0))
                orientation = (Rotation.from_rotvec([0.0, 0.0, yaw])
                               * Rotation.from_rotvec(np.array(base.orientation))).as_rotvec()
            pose = Pose([length, base.position[1], rest_height(scene, level)], orientation)
            if not scene_collides(pose, scene):
                found[k] += 1
                draws[k] = 0
        pending = [k for k in pending if found[k] < 2]
    raise AssertionError("every task was placed")


@pytest.mark.parametrize("mode, seed", [("translational", 1), ("translational", 2),
                                        ("combined", 1)])
def test_sample_tasks_failure_leaves_each_generator_where_its_draws_stopped(endpoints, mode,
                                                                            seed):
    """On a shelf with both bays filled, the SamplingError names the lowest
    position that ran out in its round, and every generator's state after
    the raise is the replay's: the positions before it drew once more in
    that round, the rest did not."""
    scene = filled_bays_scene()
    rngs = [np.random.default_rng([seed, i]) for i in range(12)]
    replay = [np.random.default_rng([seed, i]) for i in range(12)]
    with pytest.raises(SamplingError) as caught:
        sample_tasks(scene, mode, rngs, *endpoints)
    index, endpoint, found = replayed_failure(scene, mode, replay, *endpoints)
    assert index > 0 and any(found)  # not the first position, and some endpoints were placed
    assert (caught.value.index, caught.value.reason) == (
        index, f"{endpoint}: no collision-free rest pose found in {SAMPLE_ATTEMPTS} draws")
    assert [rng.bit_generator.state for rng in rngs] == [
        rng.bit_generator.state for rng in replay]


class Scripted:
    """A generator stand-in drawing lengths from a list (its last entry
    repeating), always on level 0."""

    def __init__(self, *lengths):
        self.lengths = list(lengths)

    def uniform(self, low, high):
        return self.lengths.pop(0) if len(self.lengths) > 1 else self.lengths[0]

    def integers(self, high):
        return 0


FREE, ON_LIP = 0.2, 0.4  # lengths on level 0 away from and across the middle lip


@pytest.mark.parametrize("rngs, index, endpoint", [
    (lambda: [np.random.default_rng(0), Scripted(ON_LIP), Scripted(ON_LIP)], 1, "start"),
    (lambda: [np.random.default_rng(0), Scripted(FREE, ON_LIP)], 1, "goal"),
    (lambda: [Scripted(FREE, ON_LIP), Scripted(ON_LIP)], 1, "start"),
])
def test_sample_tasks_name_the_generator_and_endpoint_that_ran_out(endpoints, rngs, index,
                                                                   endpoint):
    """The first generator to spend its draws on one endpoint is named, the
    lowest position among those running out in the same round."""
    with pytest.raises(SamplingError) as caught:
        sample_tasks(default_scene(), "translational", rngs(), *endpoints)
    assert (caught.value.index, str(caught.value)) == (index, (
        f"generator {index}, {endpoint}: no collision-free rest pose found in "
        f"{SAMPLE_ATTEMPTS} draws"))


def test_sample_tasks_raise_pose_errors_for_a_block_that_breaks_its_rules(endpoints,
                                                                         monkeypatch):
    """Yaws turned to a rotation vector of magnitude pi pass the collision
    check, but the endpoint block does not pass Pose's rules, so the
    sampler builds its Poses through Pose(...), which raises."""
    def half_turns(bases, yaws):
        return np.tile([np.pi, 0.0, 0.0], (len(yaws), 1))

    monkeypatch.setattr("gmmgen.scene._yawed_orientations", half_turns)
    with pytest.raises(ValueError, match="^rotation-vector magnitude 3.141593 rad must stay "
                                         "below pi$"):
        sample_tasks(default_scene(), "combined", [np.random.default_rng(0)], *endpoints)


def test_sample_tasks_refuse_a_generator_passed_twice(endpoints):
    """Two tasks drawing from one generator would not be the tasks
    sample_task draws from each."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="one was passed twice"):
        sample_tasks(default_scene(), "combined", [rng, np.random.default_rng(1), rng],
                     *endpoints)


def test_default_scene_geometry(scene):
    assert len(scene.slabs) == 6
    assert scene.levels == (0.0, 0.40)
    assert scene.length_range == (0.10, 0.70)
    assert np.allclose(scene.box_dims, [0.20, 0.15, 0.12])
    # a box resting on either level, away from the lip, clears every obstacle
    for level in scene.levels:
        pose = Pose([0.2, 0.225, rest_height(scene, level)], [0.0, 0.0, 0.0])
        assert not scene_collides(pose, scene)
    # sitting across the bay divider hits the lip on the lower level only
    assert scene_collides(Pose([0.4, 0.225, rest_height(scene, 0.0)],
                               [0.0, 0.0, 0.0]), scene)
    assert not scene_collides(Pose([0.4, 0.225, rest_height(scene, 0.40)],
                                   [0.0, 0.0, 0.0]), scene)
    # but dropping it below the clearance hits the base board
    sunk = Pose([0.2, 0.225, 0.5 * 0.12 - 0.001], [0.0, 0.0, 0.0])
    assert scene_collides(sunk, scene)


def test_scene_rejects_a_slab_of_another_type(scene):
    corners = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    for slabs in ([corners], [*scene.slabs, corners]):
        with pytest.raises(TypeError, match=f"^slab {len(slabs) - 1} must be a Slab, got tuple$"):
            Scene(slabs, scene.box_dims, scene.levels, scene.length_range)


def test_scene_json_roundtrip(tmp_path, scene):
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.levels == scene.levels
    assert back.length_range == scene.length_range
    assert np.array_equal(back.box_dims, scene.box_dims)
    for a, b in zip(back.slabs, scene.slabs):
        assert np.array_equal(a.min_corner, b.min_corner)
        assert np.array_equal(a.max_corner, b.max_corner)
    path.write_text("{broken")
    with pytest.raises(ValueError) as err:
        load_scene(path)
    assert str(path) in str(err.value)
    with pytest.raises(ValueError):
        load_scene(tmp_path / "nope.json")


def test_load_scene_rejects_mutated_json_with_located_error(tmp_path_factory, scene):
    path = tmp_path_factory.mktemp("mutations") / "mutated_scene.json"

    def check(doc):
        path.write_text(json.dumps(doc))
        try:
            load_scene(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    settings(max_examples=300)(given(doc=mutated(scene_to_dict(scene)))(check))()


def test_published_scene_file_matches_default(scene):
    from pathlib import Path

    published = Path(__file__).resolve().parents[1] / "scenes" / "shelf_default.json"
    back = load_scene(published)
    assert back.levels == scene.levels
    assert back.length_range == scene.length_range
    assert np.array_equal(back.box_dims, scene.box_dims)
    assert len(back.slabs) == len(scene.slabs)
    for a, b in zip(back.slabs, scene.slabs):
        assert np.array_equal(a.min_corner, b.min_corner)
        assert np.array_equal(a.max_corner, b.max_corner)
