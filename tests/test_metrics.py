import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from gmmgen.bench import model_endpoints
from gmmgen.data import PhaseSchedule, Pose, TaskSpec, Trajectory, _resampled, resample
from gmmgen.metrics import (RAD_TO_DEG, SHAPE_POINTS, EvalReport, FailureReason,
                            _centered_paths, _eval_reports, _geodesic_angles, _jerk_differences,
                            _mean_jerks, _phase_windows, _pose_stack, _procrustes, _targets,
                            _window_deviations, average_jerk, boundary_error, boundary_errors,
                            phase_deviation, shape_deviation, shape_reference)
from gmmgen.reparam import ReparamConfig
from gmmgen.scene import sample_tasks

from helpers import compiled_values


def pose_rows(times, positions, rotvecs=None):
    positions = np.atleast_2d(positions)
    if rotvecs is None:
        rotvecs = np.zeros_like(positions)
    return Trajectory(times, np.hstack([positions, np.atleast_2d(rotvecs)]))


def test_rotation_angle_hand_cases():
    degrees = _geodesic_angles(np.array([[0, 0, 0], [0.1, 0.2, 0.3], [np.pi / 2, 0, 0]]),
                               np.array([[0, 0, np.pi / 4], [0.1, 0.2, 0.3], [0, np.pi / 2, 0]]))
    degrees *= RAD_TO_DEG
    assert degrees[0] == pytest.approx(45.0)
    assert degrees[1] == pytest.approx(0.0, abs=1e-12)
    # two 90-degree turns about orthogonal axes sit 120 degrees apart
    assert degrees[2] == pytest.approx(120.0)


def oracle_geodesic_angles(rotvecs_a, rotvecs_b):
    """The former _geodesic_angles(): scipy's composition of (k, 3) rows."""
    ra = Rotation.from_rotvec(np.array(rotvecs_a, dtype=float))
    rb = Rotation.from_rotvec(np.array(rotvecs_b, dtype=float))
    return (ra.inv() * rb).magnitude()


# rotation-vector norms: none, scipy's Taylor branch (<= 1e-3), any, just below pi
ANGLE_RANGES = {"zero": (0.0, 0.0), "taylor": (0.0, 1e-3), "any": (0.0, 3.0),
                "near pi": (np.pi - 1e-4, np.pi - 1e-12)}


def random_rotvecs(rng, shape, kind):
    axes = rng.normal(size=(*shape, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    return axes * rng.uniform(*ANGLE_RANGES[kind], size=(*shape, 1))


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 60),
       kinds=st.tuples(*[st.sampled_from(sorted(ANGLE_RANGES))] * 2),
       nearby=st.booleans())
@settings(max_examples=200)
def test_geodesic_angles_match_scipy_composition(seed, k, kinds, nearby):
    """Bitwise the angles of scipy's inv() * composition, for rows of every
    angle range, and for rows a small turn apart."""
    rng = np.random.default_rng(seed)
    a = random_rotvecs(rng, (k,), kinds[0])
    b = random_rotvecs(rng, (k,), kinds[1])
    if nearby:
        b = a + 10.0 ** rng.uniform(-9, -2) * random_rotvecs(rng, (k,), "any")
        b *= np.minimum(1.0, (np.pi - 1e-12) / np.linalg.norm(b, axis=-1, keepdims=True))
    assert np.array_equal(_geodesic_angles(a, b), oracle_geodesic_angles(a, b))


@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 5), st.integers(1, 30)),
       kind=st.sampled_from(sorted(ANGLE_RANGES)))
@settings(max_examples=100)
def test_geodesic_angles_broadcast_centre_matches_scipy(seed, shape, kind):
    """A (T, 1, 3) centre against (T, k, 3) rows, as _window_deviations()
    passes them, gives the (T, k) angles of the broadcast rows, bitwise."""
    rng = np.random.default_rng(seed)
    center = random_rotvecs(rng, (shape[0], 1), kind)
    rows = center + 1e-2 * random_rotvecs(rng, shape, "any")
    rows *= np.minimum(1.0, (np.pi - 1e-12) / np.linalg.norm(rows, axis=-1, keepdims=True))
    want = oracle_geodesic_angles(np.broadcast_to(center, rows.shape).reshape(-1, 3),
                                  rows.reshape(-1, 3)).reshape(shape)
    got = _geodesic_angles(center, rows)
    assert got.shape == shape and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_pose_stack_is_a_read_only_view_of_the_values():
    """One trajectory enters the metric kernels as a read-only (1, n, 6)
    view of its values, bitwise its positions then its orientations, so no
    metric can write into it."""
    rng = np.random.default_rng(2)
    traj = pose_rows(np.linspace(0.0, 3.0, 31), rng.normal(size=(31, 3)),
                     0.3 * rng.normal(size=(31, 3)))
    times, values = _pose_stack(traj)
    assert times is traj.times and values.shape == (1, 31, 6)
    assert np.shares_memory(values, traj.values) and not values.flags.writeable
    want = np.concatenate([traj.positions(), traj.orientations()], axis=1)
    assert values[0].tobytes() == want.tobytes()


def test_boundary_error_345_triangle():
    traj = pose_rows([0.0, 1.0],
                     [[0.003, 0.004, 0.0], [0.1, 0.0, 0.0]],
                     [[0.0, 0.0, np.pi / 4], [0.0, 0.0, 0.0]])
    task = TaskSpec(Pose([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                    Pose([0.1, 0.0, 0.0], [0.0, 0.0, 0.0]))
    (s_mm, s_deg), (g_mm, g_deg) = boundary_error(traj, task)
    assert s_mm == pytest.approx(5.0)
    assert s_deg == pytest.approx(45.0)
    assert g_mm == pytest.approx(0.0, abs=1e-12)
    assert g_deg == pytest.approx(0.0, abs=1e-12)


def test_phase_deviation_alternating_offsets():
    deg = np.pi / 360.0  # 0.5 degrees
    times = [0.0, 0.2, 0.4, 0.6, 3.0, 6.0, 6.2, 6.4, 6.6]
    pos = np.zeros((9, 3))
    rot = np.zeros((9, 3))
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    for window in ([0, 1, 2, 3], [5, 6, 7, 8]):
        pos[window, 0] = signs * 0.001
        rot[window, 2] = signs * deg
    traj = pose_rows(times, pos, rot)
    (g_mm, g_deg), (r_mm, r_deg) = phase_deviation(traj, PhaseSchedule(1.0, 6.0, 7.0))
    assert g_mm == pytest.approx(1.0, abs=1e-9)
    assert g_deg == pytest.approx(0.5, abs=1e-9)
    assert r_mm == pytest.approx(1.0, abs=1e-9)
    assert r_deg == pytest.approx(0.5, abs=1e-9)


def test_phase_deviation_needs_window_samples():
    traj = pose_rows([0.0, 3.0, 7.0], np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"^the grasp window \[0\.0, 1\.0\] s holds 1 of the 3 "
                                         "samples; each phase window needs at least two$"):
        phase_deviation(traj, PhaseSchedule(1.0, 6.0, 7.0))
    traj = pose_rows([0.0, 0.5, 1.0, 7.0], np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"^the release window \[6\.0, 7\.0\] s holds 1 of the 4 "
                                         "samples; each phase window needs at least two$"):
        phase_deviation(traj, PhaseSchedule(1.0, 6.0, 7.0))


def helix(times, phase=0.0, radius=1.0):
    angle = 2.0 * np.pi * (times / times[-1]) + phase
    return np.column_stack([radius * np.cos(angle),
                            radius * np.sin(angle),
                            times / times[-1]])


def test_shape_deviation_similarity_invariances():
    times = np.linspace(0.0, 1.0, 60)
    ref = pose_rows(times, helix(times))
    assert shape_deviation(ref, ref) < 1e-12
    shifted = pose_rows(times, helix(times) + np.array([5.0, -3.0, 2.0]))
    assert shape_deviation(shifted, ref) < 1e-9
    scaled = pose_rows(times, 3.0 * helix(times))
    assert shape_deviation(scaled, ref) < 1e-9
    rot = Rotation.from_rotvec(0.7 * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    rotated = pose_rows(times, helix(times) @ rot.as_matrix().T)
    assert shape_deviation(rotated, ref) < 1e-9
    combined = pose_rows(times, 0.2 * helix(times) @ rot.as_matrix().T + 1.5)
    assert shape_deviation(combined, ref) < 1e-9


def test_shape_deviation_scores_the_open_path():
    # rolling the samples wraps the helix's end onto its start; an open-path
    # metric must see that, even though some index shift would undo it
    times = np.linspace(0.0, 1.0, 60)
    ref = pose_rows(times, helix(times))
    for shift in (7, 20):
        cand = pose_rows(times, np.roll(helix(times), shift, axis=0))
        assert shape_deviation(cand, ref) > 0.05
        assert oracle_shape_deviation(cand, ref)[0] < 0.01


def oracle_shape_deviation(traj, reference):
    """The former metric: best proper Procrustes fit over all circular index
    shifts of the candidate.  Returns (best clamped value, per-shift terms)."""
    def normalized(t):
        pts = resample(t, SHAPE_POINTS).positions().copy()
        pts -= pts.mean(axis=0)
        return pts / float(np.linalg.norm(pts))

    ref = normalized(reference)
    cand = normalized(traj)
    terms = []
    for shift in range(SHAPE_POINTS):
        rolled = np.roll(cand, -shift, axis=0)
        m = rolled.T @ ref
        u, s, vt = np.linalg.svd(m)
        proper = s[0] + s[1] + np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[2]
        terms.append(2.0 - 2.0 * proper)
    return max(float(min(terms)), 0.0), terms


@st.composite
def _curve_pairs(draw):
    """Two position paths on their own time grids: random walks, helices with a
    random phase, radius and roll, and mirrored copies of each other."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("walk", "helix", "mirror")))
    paths = []
    for _ in range(2):
        n = draw(st.integers(4, 90))
        times = np.sort(rng.uniform(0.0, 5.0, n))
        times[0], times[-1] = 0.0, 5.0
        times = np.unique(times)
        if kind == "walk":
            pts = np.cumsum(rng.normal(size=(len(times), 3)), axis=0)
        else:
            pts = np.roll(helix(times, rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 3.0)),
                          int(rng.integers(len(times))), axis=0)
        paths.append(pose_rows(times, pts))
    if kind == "mirror":
        a = paths[0]
        paths[1] = pose_rows(a.times, a.positions() * np.array([-1.0, 1.0, 1.0]))
    return paths


@settings(derandomize=True, max_examples=150)
@given(_curve_pairs())
def test_shape_deviation_is_the_oracle_shift_zero_term(pair):
    cand, ref = pair
    value = shape_deviation(cand, ref)
    best, terms = oracle_shape_deviation(cand, ref)
    assert value == max(float(terms[0]), 0.0)
    assert value >= best
    assert 0.0 <= value <= 2.0


def test_shape_deviation_rejects_mirrors_and_degenerates():
    times = np.linspace(0.0, 1.0, 60)
    ref = pose_rows(times, helix(times))
    mirrored = pose_rows(times, helix(times) * np.array([-1.0, 1.0, 1.0]))
    dev = shape_deviation(mirrored, ref)
    assert 0.01 < dev <= 2.0 + 1e-12
    flat = pose_rows(times, np.zeros((60, 3)))
    with pytest.raises(ValueError):
        shape_deviation(flat, ref)


def test_shape_deviation_is_symmetric():
    times = np.linspace(0.0, 1.0, 60)
    a = pose_rows(times, helix(times))
    circle = helix(times) * np.array([1.0, 1.0, 0.0])
    b = pose_rows(times, circle + np.array([0.3, 0.0, 0.0]))
    assert shape_deviation(a, b) == pytest.approx(shape_deviation(b, a), abs=1e-9)


def test_jerk_cubic_is_exact():
    times = np.linspace(0.0, 1.0, 101)
    pos = np.zeros((101, 3))
    pos[:, 0] = times**3
    traj = pose_rows(times, pos)
    linear, angular = average_jerk(traj)
    assert linear == pytest.approx(6.0, abs=1e-8)
    assert angular == pytest.approx(0.0, abs=1e-9)


def quintic_blend(u):
    return 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5


def quintic_jerk(u):
    return 60.0 - 360.0 * u + 360.0 * u**2


def test_jerk_quintic_against_analytic_mean():
    duration = 5.0
    times = np.linspace(0.0, duration, 501)
    pos = np.zeros((501, 3))
    pos[:, 2] = quintic_blend(times / duration)
    traj = pose_rows(times, pos)
    linear, _ = average_jerk(traj)
    # mean of |60 - 360u + 360u^2| over [0,1] is 40/sqrt(3)
    analytic = 40.0 / np.sqrt(3.0) / duration**3
    assert abs(linear - analytic) / analytic < 0.02


def test_jerk_stencil_matches_analytic_profile():
    times = np.linspace(0.0, 1.0, 101)
    pos = np.zeros((101, 3))
    pos[:, 2] = quintic_blend(times)
    traj = pose_rows(times, pos)
    linear, _ = average_jerk(traj)
    # the analytic jerk sampled on the same interior grid the stencil covers
    oracle = np.abs(quintic_jerk(times[2:-2])).mean()
    assert abs(linear - oracle) / oracle < 0.005


def test_jerk_rotation_channel_reports_degrees():
    times = np.linspace(0.0, 1.0, 201)
    vals = np.zeros((201, 6))
    vals[:, 1] = quintic_blend(times)
    vals[:, 5] = 0.5 * quintic_blend(times)
    traj = Trajectory(times, vals)
    linear, angular = average_jerk(traj)
    expected = 0.5 * linear * 180.0 / np.pi
    assert angular == pytest.approx(expected, rel=1e-9)


def test_jerk_validation():
    with pytest.raises(ValueError):
        average_jerk(pose_rows([0.0, 0.02], np.zeros((2, 3))))
    with pytest.raises(ValueError):
        average_jerk(Trajectory([0.0, 1.0], np.zeros((2, 2))))


def oracle_mean_jerks(times, values):
    """_mean_jerks(_jerk_differences()) with the stencil as one expression of
    fresh temporaries."""
    duration = float(times[-1])
    n = int(round(duration * 100.0)) + 1
    grid = _resampled(times, values, n)[1]
    h = duration / (n - 1)
    third = (grid[:, 4:] - 2.0 * grid[:, 3:-1] + 2.0 * grid[:, 1:-3] - grid[:, :-4]) / (2.0 * h**3)
    return squared_mean_jerks(third)


def squared_mean_jerks(diffs):
    """_mean_jerks() from one (T, m, 6) array of squares."""
    sq = diffs * diffs
    norms = [np.sqrt(sq[..., i] + sq[..., i + 1] + sq[..., i + 2]).mean(axis=1) for i in (0, 3)]
    return np.stack([norms[0], norms[1] * (180.0 / np.pi)], axis=-1)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_trajs=st.integers(1, 6), n=st.integers(2, 300),
       duration=st.floats(0.07, 9.0), log_scale=st.integers(-8, 8))
def test_mean_jerks_stencil_matches_one_expression_bitwise(seed, n_trajs, n, duration,
                                                           log_scale):
    """Rough random rows on an uneven grid, at magnitudes from 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, n - 1))])
    times *= duration / times[-1]
    values = rng.normal(scale=10.0 ** log_scale, size=(n_trajs, n, 6))
    got = _mean_jerks(_jerk_differences(times, values))
    want = oracle_mean_jerks(times, values)
    assert got.shape == want.shape == (n_trajs, 2)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_trajs=st.integers(1, 20), m=st.integers(1, 800),
       log_scale=st.integers(-8, 8))
def test_mean_jerks_accumulates_as_the_array_of_squares_bitwise(seed, n_trajs, m, log_scale):
    """_mean_jerks adds its squares one dimension at a time, bitwise as the
    (T, m, 6) array of squares did: on a C-ordered (1, m, 6) array, as one
    trajectory's stencil gives it, and on a (6, T, m)-ordered view, as a
    chunk's _combined() gives it."""
    rng = np.random.default_rng(seed)
    one = rng.normal(scale=10.0 ** log_scale, size=(1, m, 6))
    chunk = rng.normal(scale=10.0 ** log_scale, size=(6, n_trajs, m)).transpose(1, 2, 0)
    for diffs in (one, chunk):
        got, want = _mean_jerks(diffs), squared_mean_jerks(diffs)
        assert got.shape == want.shape == (len(diffs), 2)
        assert got.tobytes() == want.tobytes()


def test_targets_are_the_tasks_concatenated_pose_vectors(model, scene):
    """_targets() stacks each task's start and goal vectors bytewise as two
    concatenations per task did, on sampled and hand-built tasks."""
    rngs = [np.random.default_rng([5, i]) for i in range(17)]
    sampled = sample_tasks(scene, "combined", rngs, *model_endpoints(model))
    hand = [TaskSpec(Pose([0.0, -0.0, 1e-300], [-0.0, 0.0, 0.0]),
                     Pose([-1e300, 2.5, 3], [3.0, 0.0, -0.1])),
            TaskSpec(Pose([1, 2, 3], [0.1, 0.2, 0.3]), Pose([4, 5, 6], [0.0, -3.14, 0.0]))]
    for tasks in (sampled, hand, sampled[:1]):
        want = np.array([[task.start_vector(), task.goal_vector()] for task in tasks])
        got = _targets(tasks)
        assert got.shape == want.shape == (len(tasks), 2, 6) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_eval_report_roundtrip_and_validation():
    report = EvalReport(True, FailureReason.NONE, 0.1, 0.2, 0.3, 0.4,
                        0.5, 0.6, 0.7, 0.8, 0.001, 1.5, 2.5)
    obj = report.to_dict()
    assert obj["failure_reason"] == "none"
    assert EvalReport(**obj) == report
    failed = EvalReport(False, "collision", 0.1, 0.2, 0.3, 0.4,
                        0.5, 0.6, 0.7, 0.8, 0.001, 1.5, 2.5)
    assert failed.failure_reason is FailureReason.COLLISION
    with pytest.raises(ValueError):
        EvalReport(True, FailureReason.BOUNDARY, 0.1, 0.2, 0.3, 0.4,
                   0.5, 0.6, 0.7, 0.8, 0.001, 1.5, 2.5)
    with pytest.raises(ValueError):
        EvalReport(False, FailureReason.BOUNDARY, -0.1, 0.2, 0.3, 0.4,
                   0.5, 0.6, 0.7, 0.8, 0.001, 1.5, 2.5)


@pytest.mark.parametrize("verdict, row, message", [
    ((True, FailureReason.NONE), [np.nan] + [0.5] * 10, "metric values must be finite"),
    ((False, FailureReason.BOUNDARY), [-0.1] + [0.5] * 10, "metric values must be finite"),
    ((True, FailureReason.BOUNDARY), [0.5] * 11, "a successful report cannot carry"),
    ((False, "collision"), [0.5] * 11, None),
    ((False, FailureReason.NONE), [0.5] * 11, None),
], ids=["nan", "negative", "success-with-reason", "reason-string", "failure-without-reason"])
def test_a_report_batch_that_breaks_the_rule_goes_through_the_constructor(verdict, row,
                                                                          message):
    """A batch with one row or verdict outside the trusted rule is built by
    EvalReport(...) row by row: its error, or its reports (a reason given
    as a string, a failure with reason NONE)."""
    good = ((False, FailureReason.COLLISION), [0.25] * 11)
    verdicts, rows = zip(good, (verdict, row))
    if message is not None:
        with pytest.raises(ValueError, match=f"^{message}"):
            _eval_reports(list(verdicts), np.array(rows))
    else:
        got = _eval_reports(list(verdicts), np.array(rows))
        assert got == [EvalReport(*v, *r) for v, r in zip(verdicts, rows)]
        assert got[1].failure_reason is FailureReason(verdict[1])


# The four metrics one trajectory at a time, in their former 1-D form: the
# oracles for the (T, n, 6) stacks.
def oracle_angle_deg(a, b):
    rel = Rotation.from_rotvec(np.array(a)).inv() * Rotation.from_rotvec(np.array(b))
    return float(rel.magnitude() * (180.0 / np.pi))


def oracle_boundary_error(traj, task):
    out = []
    for index, target in ((0, task.start), (-1, task.goal)):
        pos_mm = float(np.linalg.norm(traj.positions()[index] - target.position)) * 1000.0
        out.append((pos_mm, oracle_angle_deg(target.orientation, traj.orientations()[index])))
    return tuple(out)


def oracle_phase_deviation(traj, phases):
    out = []
    for window in (traj.times <= phases.grasp_end, traj.times >= phases.release_start):
        positions, rotvecs = traj.positions()[window], traj.orientations()[window]
        pos_dev = float(np.linalg.norm(positions - positions.mean(axis=0), axis=1).mean())
        rel = (Rotation.from_rotvec(rotvecs.mean(axis=0)).inv()
               * Rotation.from_rotvec(rotvecs))
        out.append((pos_dev * 1000.0, float(rel.magnitude().mean()) * (180.0 / np.pi)))
    return tuple(out)


def oracle_unit_path(traj):
    pts = resample(traj, SHAPE_POINTS).positions().copy()
    pts -= pts.mean(axis=0)
    return pts / float(np.linalg.norm(pts))


def oracle_procrustes(traj, reference):
    ref, cand = oracle_unit_path(reference), oracle_unit_path(traj)
    u, s, vt = np.linalg.svd(cand.T @ ref)
    proper = s[0] + s[1] + np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[2]
    return max(float(2.0 - 2.0 * proper), 0.0)


def oracle_average_jerk(traj):
    n = int(round(traj.duration * 100.0)) + 1
    grid = resample(traj, n)
    h = traj.duration / (n - 1)
    p, r = grid.positions(), grid.orientations()
    third_p = (p[4:] - 2.0 * p[3:-1] + 2.0 * p[1:-3] - p[:-4]) / (2.0 * h**3)
    third_r = (r[4:] - 2.0 * r[3:-1] + 2.0 * r[1:-3] - r[:-4]) / (2.0 * h**3)
    return (float(np.linalg.norm(third_p, axis=1).mean()),
            float(np.linalg.norm(third_r, axis=1).mean()) * (180.0 / np.pi))


def assert_stack_matches_oracles(trajs, tasks, phases, reference):
    """Each metric kernel's .tolist() row on the (T, n, 6) stack, and each
    one-trajectory metric, equals its oracle exactly (== on floats: bitwise
    for these finite values).  The window rows are copied C-contiguous, as
    _window_deviations() requires."""
    times = trajs[0].times
    assert all(np.array_equal(traj.times, times) for traj in trajs)
    values = np.stack([traj.values for traj in trajs])
    ref = shape_reference(reference)
    assert ref.tobytes() == oracle_unit_path(reference).tobytes()
    targets = np.array([[task.start_vector(), task.goal_vector()] for task in tasks])
    windows = [np.ascontiguousarray(values[:, window])
               for window in _phase_windows(times, phases)]
    stacks = (boundary_errors(values[:, [0, -1]], targets), _window_deviations(windows),
              _procrustes(_centered_paths(times, values), ref),
              _mean_jerks(_jerk_differences(times, values)))
    assert [stack.shape for stack in stacks] == [(len(trajs), 2, 2), (len(trajs), 2, 2),
                                                 (len(trajs),), (len(trajs), 2)]
    for traj, task, *rows in zip(trajs, tasks, *(stack.tolist() for stack in stacks)):
        want = (oracle_boundary_error(traj, task), oracle_phase_deviation(traj, phases),
                oracle_procrustes(traj, reference), oracle_average_jerk(traj))
        assert rows == [np.array(value).tolist() for value in want]
        assert (boundary_error(traj, task), phase_deviation(traj, phases),
                shape_deviation(traj, reference), average_jerk(traj)) == want


@pytest.mark.parametrize("mode", ["combined", "translational"])
@pytest.mark.parametrize("ablate", [False, True], ids=["full", "ablated"])
def test_metric_stacks_match_oracles_on_benchmark_trajectories(model, scene, times, mode,
                                                               ablate):
    """Trajectories of benchmark tasks, taken from the compiled curves."""
    rngs = [np.random.default_rng([23, i]) for i in range(12)]
    tasks = sample_tasks(scene, mode, rngs, *model_endpoints(model))
    trajs = [Trajectory(times, values)
             for values in compiled_values(model, tasks, ReparamConfig(ablate), times)]
    assert_stack_matches_oracles(trajs, tasks, model.phases, trajs[0])


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_trajs=st.integers(1, 5),
       n=st.integers(40, 400), duration=st.floats(1.0, 8.0))
def test_metric_stacks_match_oracles_on_random_paths(seed, n_trajs, n, duration):
    """Smooth random paths on a shared, unevenly spaced time grid, with
    rotation vectors below pi and a reference on a grid of its own."""
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
    times *= duration / times[-1]

    def path(grid):
        freq = rng.uniform(0.2, 2.0, (1, 6))
        values = rng.normal(size=(1, 6)) * np.sin(freq * grid[:, None] + rng.uniform(0, 6, (1, 6)))
        values[:, 3:] *= 1.0 / (1.0 + np.abs(values[:, 3:]).sum(axis=1, keepdims=True))
        return Trajectory(grid, values + rng.normal(scale=1e-3, size=values.shape))

    trajs = [path(times) for _ in range(n_trajs)]
    tasks = [TaskSpec(Pose.from_vector(rng.normal(size=6) * [1, 1, 1, 0.5, 0.5, 0.5]),
                      Pose.from_vector(rng.normal(size=6) * [1, 1, 1, 0.5, 0.5, 0.5]))
             for _ in range(n_trajs)]
    phases = PhaseSchedule(0.2 * duration, 0.7 * duration, duration)
    reference = path(np.linspace(0.0, rng.uniform(1.0, 8.0), 150))
    assert_stack_matches_oracles(trajs, tasks, phases, reference)
