import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from gmmgen.data import Pose, TaskSpec, Trajectory
from gmmgen.metrics import FailureReason
from gmmgen.scene import (REST_CLEARANCE, Scene, Slab, SuccessThresholds,
                          box_collides, collision_mask, default_scene,
                          load_scene, rest_height, sample_task, save_scene,
                          scene_collides, scene_to_dict, trajectory_success)

from conftest import mutated

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
    # the one-pose wrappers read the same kernel
    for i in range(0, 400, 37):
        pose = Pose(positions[i], rotvecs[i])
        assert scene_collides(pose, scene) == expected[i].any()
        assert [box_collides(pose, scene.box_dims, s) for s in scene.slabs] == list(expected[i])


def test_collision_mask_empty_inputs(scene):
    none = np.zeros((0, 3))
    assert collision_mask(none, none, scene.box_dims, scene.slabs).shape == (0, 6)
    assert collision_mask(np.zeros((2, 3)), np.zeros((2, 3)), UNIT_BOX, ()).shape == (2, 0)


def test_separating_axis_hand_cases():
    # unit box at origin vs slab approaching along +x: 0.01 overlap vs 0.01 gap
    assert box_collides(ORIGIN, UNIT_BOX, Slab((0.49, -1, -1), (1, 1, 1)))
    assert not box_collides(ORIGIN, UNIT_BOX, Slab((0.51, -1, -1), (1, 1, 1)))
    # touching faces count as collision
    assert box_collides(ORIGIN, UNIT_BOX, Slab((0.5, -1, -1), (1, 1, 1)))
    # far away / containment
    assert not box_collides(ORIGIN, UNIT_BOX, Slab((5, 5, 5), (6, 6, 6)))
    assert box_collides(Pose([5.5, 5.5, 5.5], [0, 0, 0]), UNIT_BOX,
                        Slab((5, 5, 5), (6, 6, 6)))


def test_separating_axis_respects_yaw():
    # 0.2 x 0.1 x 0.1 box yawed 90 degrees: the long side turns into y
    yawed = Pose([0.0, 0.0, 0.0], [0.0, 0.0, np.pi / 2.0])
    dims = (0.2, 0.1, 0.1)
    near = Slab((-1.0, 0.09, -1.0), (1.0, 1.0, 1.0))
    assert box_collides(yawed, dims, near)
    assert not box_collides(ORIGIN, dims, near)  # unrotated clears it
    far = Slab((-1.0, 0.11, -1.0), (1.0, 1.0, 1.0))
    assert not box_collides(yawed, dims, far)


def test_separating_axis_diagonal_support():
    # 45-degree yaw stretches the support along x to 0.1*sqrt(2) ~ 0.1414
    pose = Pose([0.0, 0.0, 0.0], [0.0, 0.0, np.pi / 4.0])
    dims = (0.2, 0.2, 0.2)
    assert box_collides(pose, dims, Slab((0.138, -1, -1), (1, 1, 1)))
    assert not box_collides(pose, dims, Slab((0.145, -1, -1), (1, 1, 1)))
    # the same slabs straddle an axis-aligned box differently
    assert not box_collides(ORIGIN, dims, Slab((0.138, -1, -1), (1, 1, 1)))


def test_collision_monotone_in_box_scale():
    rng = np.random.default_rng(21)
    slab = Slab((-0.3, -0.2, -0.25), (0.3, 0.2, 0.25))
    for _ in range(200):
        pose = Pose(rng.uniform(-0.8, 0.8, 3), rng.uniform(-1.0, 1.0, 3))
        dims = rng.uniform(0.05, 0.4, 3)
        hits = [box_collides(pose, s * dims, slab) for s in (0.5, 1.0, 1.5, 2.5)]
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
        for slab in scene.slabs:
            inside = np.all((points >= slab.min_corner[:, None])
                            & (points <= slab.max_corner[:, None]), axis=0)
            if inside.any():
                assert box_collides(pose, scene.box_dims, slab)


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


def test_rest_height_includes_clearance(scene):
    assert rest_height(scene, 0.0) == pytest.approx(0.5 * 0.12 + REST_CLEARANCE)
    assert rest_height(scene, 0.40) == pytest.approx(0.40 + 0.063)


def arc_task(scene, x0=0.15, x1=0.65):
    y = 0.225
    z = rest_height(scene, 0.0)
    return TaskSpec(Pose([x0, y, z], [0.0, 0.0, 0.0]),
                    Pose([x1, y, z], [0.0, 0.0, 0.0]))


def test_trajectory_success_reasons(scene):
    task = arc_task(scene)
    start = task.start_vector()
    goal = task.goal_vector()
    # straight slide along the base board runs into the middle lip
    slide = Trajectory([0.0, 7.0], np.vstack([start, goal]))
    assert trajectory_success(slide, scene, task) == (False, FailureReason.COLLISION)
    # lifting 0.1 m clears the lip and stays under the roof
    up = start.copy(); up[2] += 0.1
    over = goal.copy(); over[2] += 0.1
    arc = Trajectory([0.0, 1.0, 6.0, 7.0], np.vstack([start, up, over, goal]))
    assert trajectory_success(arc, scene, task) == (True, FailureReason.NONE)
    # collision-free but ending 50 mm short of the goal
    short_goal = goal.copy(); short_goal[0] -= 0.05
    miss = Trajectory([0.0, 1.0, 6.0, 7.0], np.vstack([start, up, over, short_goal]))
    assert trajectory_success(miss, scene, task) == (False, FailureReason.BOUNDARY)
    # a non-pose trajectory is an error, not a failed trial
    flat = Trajectory([0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        trajectory_success(flat, scene, task)


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
