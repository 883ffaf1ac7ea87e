import ast
import re
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmmgen
from gmmgen.bench import default_times, evaluate_trajectory
from gmmgen.data import (CSV_HEADER, EXP_ZERO, PhaseSchedule, Pose, TaskSpec, Trajectory,
                         TrajectoryFormatError, _exp, _first_violation,
                         _resampled, _rotvec_angles, _valid_rows, load_trajectory, resample,
                         save_trajectory)
from gmmgen.gmr import regress
from gmmgen.metrics import EvalReport, average_jerk, phase_deviation
from gmmgen.model import FitConfig, GmmModel
from gmmgen.plot import render_svg
from gmmgen.reparam import ReparamConfig, generalize
from gmmgen.scene import SuccessThresholds, sample_tasks, trajectory_success
from gmmgen.synth import SynthConfig


def line_traj():
    return Trajectory([0.0, 1.0], [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                                   [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]])


def test_pose_roundtrip_and_validation():
    p = Pose([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    assert np.allclose(p.as_vector(), [1, 2, 3, 0.1, 0.2, 0.3])
    q = Pose.from_vector(p.as_vector())
    assert np.array_equal(q.as_vector(), p.as_vector())
    with pytest.raises(ValueError):
        Pose([np.nan, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        Pose([0, 0, 0], [np.pi, 0, 0])  # magnitude exactly pi rejected
    with pytest.raises(ValueError, match="^a pose needs 6 numbers, got 5$"):
        Pose.from_vector(np.zeros(5))
    # frozen storage
    with pytest.raises(ValueError):
        p.position[0] = 9.0


@pytest.mark.parametrize("cls,field,fraction", [
    (SuccessThresholds, "collision_samples", 3.7), (SynthConfig, "n_demos", 2.5),
    (SynthConfig, "seed", 0.5), (FitConfig, "n_components", 3.5),
    (FitConfig, "max_iters", 2.5), (FitConfig, "seed", 0.5)])
def test_integer_settings_reject_fractions_and_bools(cls, field, fraction):
    whole = int(np.ceil(fraction))
    for bad in (fraction, float(whole), True):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            cls(**{field: bad})
    assert getattr(cls(**{field: np.int64(whole)}), field) == whole
    assert getattr(cls(**{field: whole}), field) == whole


@pytest.mark.parametrize("cls,field", [
    (SynthConfig, "lift_height"), (SynthConfig, "noise_pos"), (SynthConfig, "noise_rot"),
    (FitConfig, "loglik_tol"), (FitConfig, "cov_floor")])
def test_real_settings_reject_non_finite(cls, field):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cls(**{field: bad})


@pytest.mark.parametrize("build,field", [
    (SuccessThresholds, "max_boundary_pos_mm"), (SuccessThresholds, "max_boundary_rot_deg"),
    (FitConfig, "loglik_tol"), (FitConfig, "cov_floor"), (SynthConfig, "sample_rate"),
    (SynthConfig, "lift_height"), (SynthConfig, "noise_pos"), (SynthConfig, "noise_rot"),
    (partial(default_times, 7.0), "rate")])
def test_real_settings_reject_bools(build, field):
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {bad}$"):
            build(**{field: bad})


def test_phase_schedule_ordering():
    PhaseSchedule(1.0, 6.0, 7.0)
    for bad in ((0.0, 6.0, 7.0), (6.0, 1.0, 7.0), (1.0, 7.0, 7.0), (1.0, 6.0, np.inf)):
        with pytest.raises(ValueError):
            PhaseSchedule(*bad)


@pytest.mark.parametrize("field", ["grasp_end", "release_start", "duration"])
def test_phase_schedule_rejects_bools_and_non_numbers(field):
    good = {"grasp_end": 1.0, "release_start": 6.0, "duration": 7.0}
    for bad in (True, False, "3", None, [3.0]):
        with pytest.raises(ValueError, match=rf"^{field} must be a real number, got "
                                             rf"{re.escape(repr(bad))}$"):
            PhaseSchedule(**{**good, field: bad})
    assert PhaseSchedule(np.int64(1), np.float64(6.0), 7).duration == 7


@pytest.mark.parametrize("field", ["start", "goal"])
def test_task_spec_rejects_endpoints_that_are_not_poses(field):
    pose = Pose(np.zeros(3), np.zeros(3))
    for bad in (np.zeros(6), [0.0] * 6, None):
        with pytest.raises(TypeError, match=f"^{field} must be a Pose, got {type(bad).__name__}$"):
            TaskSpec(**{"start": pose, "goal": pose, field: bad})


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory([0.0], [[1.0]])
    with pytest.raises(ValueError):
        Trajectory([0.5, 1.0], [[1.0], [2.0]])  # must start at 0
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [[1.0], [2.0]])  # strictly increasing
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [[np.inf], [2.0]])
    with pytest.raises(ValueError):
        Trajectory([0.0, 1.0], [[0, 0, 0, 3.0, 1.0, 1.0],
                                [0, 0, 0, 0, 0, 0]])  # rotvec magnitude >= pi
    t = line_traj()
    assert t.n_samples == 2 and t.dim == 6 and t.duration == 1.0
    assert np.allclose(t.positions()[0], [0, 0, 0])
    assert np.allclose(t.orientations()[-1], [0.1, 0.2, 0.3])


@pytest.mark.parametrize("index", [0, 2, 4])
@pytest.mark.parametrize("broken,problem", [
    (lambda row: row.__setitem__(1, np.nan), "non-finite value"),
    (lambda row: row.__setitem__(slice(3, 6), [np.pi, 0.0, 0.0]),
     "rotation-vector magnitude 3.141593 rad must stay below pi"),
], ids=["nan", "pi"])
def test_first_violation_names_the_first_bad_sample(index, broken, problem):
    """The first sample with a violation is the one reported, by
    _first_violation and by Trajectory alike; the later one is reported
    once the first is mended."""
    times = np.linspace(0.0, 1.0, 7)
    clean = np.tile(np.linspace(0.0, 0.3, 7)[:, None], (1, 6))
    assert _first_violation(times, clean) is None
    Trajectory(times, clean)
    values = clean.copy()
    broken(values[index])
    broken(values[5])  # a later violation is not the one reported
    assert _first_violation(times, values) == (index, problem)
    with pytest.raises(ValueError, match=rf"^sample {index}: {problem}$"):
        Trajectory(times, values)
    values[index] = clean[index]
    assert _first_violation(times, values) == (5, problem)
    with pytest.raises(ValueError, match=rf"^sample 5: {problem}$"):
        Trajectory(times, values)


def test_first_violation_names_the_sample_of_a_bad_time():
    values = np.zeros((4, 6))
    assert _first_violation(np.array([0.0, 1.0, 1.0, 2.0]), values) == (
        2, "time 1.0 does not increase past 1.0")
    assert _first_violation(np.array([0.5, 1.0, 1.5, 2.0]), values) == (
        0, "first sample must start at t=0, got t=0.5")


def test_trajectory_1d_values_allowed():
    """One-dimensional rows, (n, 1), are a trajectory; (n,) values are not."""
    t = Trajectory([0.0, 1.0, 2.0], [[0.0], [2.0], [2.0]])
    assert t.dim == 1
    with pytest.raises(ValueError):
        t.positions()  # pose accessors need 6-DoF rows
    with pytest.raises(ValueError, match=r"^times must be \(n,\) and values \(n, D\)$"):
        Trajectory([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])


def test_resample_midpoint_average():
    out = resample(line_traj(), 3)
    assert np.allclose(out.values[1], 0.5 * (line_traj().values[0] + line_traj().values[1]))
    assert np.allclose(out.values[0], line_traj().values[0])
    assert np.allclose(out.values[-1], line_traj().values[-1])


def test_resample_identity_on_uniform_grid():
    times = np.linspace(0.0, 2.0, 9)
    vals = np.sin(times)
    traj = Trajectory(times, vals[:, None])
    out = resample(traj, 9)
    assert np.array_equal(out.times, times)
    assert np.allclose(out.values[:, 0], vals, atol=1e-15)


def test_resample_piecewise_example():
    # {(0,0),(1,2),(2,2)} at n=5 -> {0,1,2,2,2}
    traj = Trajectory([0.0, 1.0, 2.0], [[0.0], [2.0], [2.0]])
    out = resample(traj, 5)
    assert np.allclose(out.values[:, 0], [0.0, 1.0, 2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        resample(traj, 1)


def oracle_resampled(times, values, n):
    """The former _resampled(): np.interp one column at a time."""
    grid = np.linspace(0.0, float(times[-1]), n)
    out = np.empty((*values.shape[:-2], n, values.shape[-1]))
    for index in np.ndindex(*values.shape[:-2], values.shape[-1]):
        column = (*index[:-1], slice(None), index[-1])
        out[column] = np.interp(grid, times, values[column])
    return grid, out


@st.composite
def resample_cases(draw):
    """(times, values, n): uniform or uneven times, n below, equal to or
    above their count, (m, D) or stacked values, some of them strided views."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 40))
    duration = rng.uniform(0.01, 20.0)
    if draw(st.booleans()):
        times = np.linspace(0.0, duration, m)
    else:
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, m - 1))])
        times *= duration / times[-1]
    n = draw(st.sampled_from(["below", "equal", "above"]))
    n = {"below": draw(st.integers(2, max(m - 1, 2))), "equal": m,
         "above": draw(st.integers(m + 1, 3 * m + 1))}[n]
    lead = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    dim = draw(st.integers(1, 6))
    scale = 10.0 ** rng.uniform(-6, 3)
    layout = draw(st.sampled_from(["contiguous", "column slice", "every other sample",
                                   "swapped"]))
    if layout == "contiguous":
        values = rng.normal(size=(*lead, m, dim)) * scale
    elif layout == "column slice":
        values = (rng.normal(size=(*lead, m, dim + 2)) * scale)[..., 1:-1]
    elif layout == "every other sample":
        values = (rng.normal(size=(*lead, 2 * m, dim)) * scale)[..., ::2, :]
    else:
        values = np.swapaxes(rng.normal(size=(*lead, dim, m)) * scale, -1, -2)
    return times, values, n


@given(resample_cases())
@settings(max_examples=300)
def test_resampled_matches_per_column_interp(case):
    """Bitwise np.interp's values, as a fresh C-contiguous array."""
    times, values, n = case
    grid, out = _resampled(times, values, n)
    want_grid, want = oracle_resampled(times, values, n)
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(out, want)
    assert out.flags.c_contiguous and not np.shares_memory(out, values)


def test_resampled_copies_knot_values_where_the_slope_overflows():
    """On a knot the value is copied, as np.interp copies it, rather than
    computed as inf * 0 + y."""
    times = np.array([0.0, 1.0, 2.0, 4.0])
    values = np.array([[-1e308, 1.0], [1e308, 2.0], [0.0, 3.0], [1.0, 4.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        out = _resampled(times, values, 5)[1]
    assert np.array_equal(out, oracle_resampled(times, values, 5)[1])
    assert out[:, 0].tolist() == [-1e308, 1e308, 0.0, 0.5, 1.0]


@pytest.mark.parametrize("n", [9, 5, 17], ids=["identity grid", "fewer", "more"])
def test_resampled_result_is_c_contiguous_and_owns_its_memory(n):
    """Callers sum the result along its rows and subtract from it in place:
    it must be C-contiguous and share no memory with the input."""
    times = np.linspace(0.0, 2.0, 9)
    base = np.random.default_rng(5).normal(size=(3, 9, 8))
    for values in (base, base[0], base[..., :6], base[::2, ::-1, 1:7]):
        grid, out = _resampled(times, values, n)
        assert out.shape == (*values.shape[:-2], n, values.shape[-1])
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, values)
        assert np.array_equal(out, oracle_resampled(times, values, n)[1])


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 30))])
    vals = rng.normal(scale=0.4, size=(31, 6))
    traj = Trajectory(times, vals)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.values, traj.values)
    assert path.read_text().splitlines()[0] == CSV_HEADER


def test_csv_errors_name_the_row(tmp_path):
    path = tmp_path / "bad.csv"

    def expect(content, fragment):
        path.write_text(content)
        with pytest.raises(TrajectoryFormatError) as err:
            load_trajectory(path)
        assert fragment in str(err.value), str(err.value)

    expect("", f"{path}: empty file")
    expect("x,y\n", "row 1")
    expect(CSV_HEADER + "\n1,2,3\n", "row 2: expected 7 columns")
    expect(CSV_HEADER + "\n0,0,0,0,0,0,oops\n", "row 2: non-numeric")
    expect(CSV_HEADER + "\n0,0,0,0,0,0,inf\n", "row 2: non-finite")
    expect(CSV_HEADER + "\n0.5,0,0,0,0,0,0\n", "start at t=0")
    expect(CSV_HEADER + "\n0,0,0,0,0,0,0\n0,1,0,0,0,0,0\n", "row 3")
    expect(CSV_HEADER + "\n0,0,0,0,0,0,0\n1,0,0,0,4,0,0\n",
           "row 3: rotation-vector magnitude 4.000000 rad must stay below pi")
    # this rotation vector's norm rounds below pi as a 1-D dot product but
    # to pi as a row-wise norm, the rounding Pose and Trajectory share
    expect(CSV_HEADER + "\n0,0,0,0,0,0,0\n"
           "1,0,0,0,2.560633362621825,-0.6824968009669148,1.6872934836558011\n"
           "2,0,0,0,0,0,0\n", f"{path}: row 3: rotation-vector magnitude")
    # every row is parsed before the trajectory rules run
    expect(CSV_HEADER + "\n0.5,0,0,0,0,0,0\n1,0,0,0,0,0,x\n", "row 3: non-numeric")
    expect(CSV_HEADER + "\n0,0,0,0,0,0,0\n", "two data rows")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(tmp_path / "missing.csv")


def test_demo_csv_with_blank_lines_loads_as_its_blank_free_twin(demos, tmp_path):
    """Blank and whitespace-only lines between and after a demonstration's
    rows are skipped: the file loads bitwise as the one without them."""
    save_trajectory(demos[0], tmp_path / "demo.csv")
    header, *rows = (tmp_path / "demo.csv").read_text().splitlines()
    spaced = [header] + [line for row in rows for line in (row, "", " \t")] + ["", ""]
    (tmp_path / "spaced.csv").write_text("\n".join(spaced) + "\n")
    want, got = load_trajectory(tmp_path / "demo.csv"), load_trajectory(tmp_path / "spaced.csv")
    assert got.times.tobytes() == want.times.tobytes() == demos[0].times.tobytes()
    assert got.values.tobytes() == want.values.tobytes() == demos[0].values.tobytes()


def test_csv_parses_alike_with_and_without_blank_lines(tmp_path):
    """A file is parsed in one numpy conversion, blank lines or not; both
    give float()'s values, bit for bit, on cells float() reads in its own
    ways."""
    cells = [["0", "5.", "-0", "1_0e-1", "+.25", " 0.5 ", "-1e-400"],
             ["1e0", "0.1", "\u0661", "-0.0", "0.3", "1_000e-3", "2.5e-1"],
             ["2", "  -.5", "0", "0", "0", "0", "0"]]
    rows = [",".join(row) for row in cells]
    want = np.array([[float(cell) for cell in row] for row in cells])
    for name, lines in (("fast", rows), ("loop", rows[:1] + [""] + rows[1:] + ["  "])):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([CSV_HEADER] + lines) + "\n", encoding="utf-8")
        back = load_trajectory(path)
        assert back.times.tobytes() == want[:, 0].tobytes()
        assert back.values.tobytes() == np.ascontiguousarray(want[:, 1:]).tobytes()


@pytest.mark.parametrize("body, message", [
    ("0,0,0,0,0,0,0\n\n1,0,0,0,0,0,0\n2,0,0,nan,0,0,0\n", "row 5: non-finite value"),
    ("0,0,0,0,0,0,0\n1,0,0,0,0,0,0,0\n", "row 3: expected 7 columns, got 8"),
    ("0,0,0,0,0,0,0\n1,0,0,0x10,0,0,0\n", "row 3: non-numeric value"),
    ("0,0,0,0,0,0,0\n1,0,nan,0,0,0,0\n", "row 3: non-finite value"),
    ("0,0,0,0,0,0,0\n", "needs at least two data rows"),
    ("", "needs at least two data rows"),
    ("\n \n", "needs at least two data rows"),
    ("0,0,0,0,0,0,0\n1,0,x,0,0,0,0\n\n2,0,0,0,0,0\n", "row 3: non-numeric value"),
    ("0,0,0,0,0,0,0\n\n1,0,0,0,0,0\n2,0,x,0,0,0,0\n", "row 4: expected 7 columns, got 6"),
])
def test_csv_errors_keep_their_message_and_row(tmp_path, body, message):
    """The whole message, row number included: a row of the wrong width or
    a non-numeric cell fails the one conversion, and the row loop names
    the first such row in file order; a nan cell or a single row passes the
    conversion to the row rules."""
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + body)
    with pytest.raises(TrajectoryFormatError) as err:
        load_trajectory(path)
    assert str(err.value) == f"{path}: {message}"


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


ROTVEC_ENTRIES = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                  | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     np.inf, -np.inf, np.nan, 1e154, 1e-160]))


@settings(max_examples=300)
@given(rows=st.lists(st.lists(ROTVEC_ENTRIES, min_size=3, max_size=3), min_size=1,
                     max_size=6),
       strided=st.booleans())
def test_rotvec_angles_are_bitwise_numpys_row_norms(rows, strided):
    """sqrt(x*x + y*y + z*z) column by column rounds as np.linalg.norm over
    the last axis, for one vector, for rows, and for the rotation columns of
    pose rows, with signed zeros, subnormals, overflowing squares, inf and nan."""
    rotvecs = np.array(rows, dtype=float)
    if strided:
        rotvecs = np.concatenate([np.ones((len(rows), 3)), rotvecs], axis=1)[:, 3:]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for vecs in (rotvecs, rotvecs[0]):
            got, want = _rotvec_angles(vecs), np.linalg.norm(vecs, axis=-1)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=400)
@given(direction=st.tuples(*3 * [st.floats(-1.0, 1.0)]).filter(
           lambda d: np.linalg.norm(d) > 0.1),
       ulps=st.integers(-4, 4))
def test_pose_row_and_csv_share_the_magnitude_rule(tmp_path_factory, direction, ulps):
    # a rotation vector in any direction whose magnitude is within a few ulps of pi
    magnitude = np.pi + ulps * np.spacing(np.pi)
    rotvec = magnitude * np.asarray(direction) / np.linalg.norm(direction)
    row = np.r_[0.0, 0.0, 0.0, rotvec]
    path = tmp_path_factory.getbasetemp() / "near_pi.csv"
    path.write_text(f"{CSV_HEADER}\n0,0,0,0,0,0,0\n1,{','.join(str(float(v)) for v in row)}\n")
    pose_ok = _accepts(lambda: Pose(row[:3], row[3:]))
    assert _accepts(lambda: Trajectory([0.0, 1.0], [np.zeros(6), row])) == pose_ok
    assert _accepts(lambda: load_trajectory(path)) == pose_ok


CSV_TOKENS = (st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-0", "0", "3.2", "x",
                               " 1 ", "1,2", "\udcff"])
              | st.floats().map(repr) | st.integers(-10**20, 10**20).map(str))


@st.composite
def mutated_csv(draw, lines):
    """The CSV lines with one to three rows or fields deleted, repeated,
    swapped or replaced, encoded as bytes (a lone surrogate becomes an
    invalid UTF-8 byte)."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append(draw(CSV_TOKENS))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["field", "drop_field", "delete", "repeat", "swap", "blank"]))
        if op in ("field", "drop_field"):
            fields = lines[i].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            if op == "field":
                fields[j] = draw(CSV_TOKENS)
            else:
                del fields[j]
            lines[i] = ",".join(fields)
        elif op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        else:
            lines.insert(i, "")
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


def test_load_trajectory_rejects_mutated_csv_with_located_error(tmp_path_factory):
    times = np.linspace(0.0, 1.0, 5)
    values = np.column_stack([times, 2 * times, -times, 0.5 * times, np.full(5, 0.3),
                              -3.0 * times])
    root = tmp_path_factory.mktemp("mutations")
    save_trajectory(Trajectory(times, values), root / "traj.csv")
    lines = (root / "traj.csv").read_text().splitlines()
    path = root / "mutated_traj.csv"

    def check(content):
        path.write_bytes(content)
        try:
            load_trajectory(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    settings(max_examples=400)(given(content=mutated_csv(lines))(check))()


@pytest.mark.parametrize("consumer", ["trajectory_success", "phase_deviation",
                                      "average_jerk", "render_svg", "save_trajectory"])
def test_pose_consumers_share_the_pose_row_error(scene, tmp_path, consumer):
    """Every reader of pose columns goes through Trajectory's pose-row rule
    (positions(), orientations()), so a non-pose trajectory fails with its
    one error."""
    rest = Pose(np.zeros(3), np.zeros(3))
    call = {
        "trajectory_success": lambda traj: trajectory_success(traj, scene, TaskSpec(rest, rest)),
        "phase_deviation": lambda traj: phase_deviation(traj, PhaseSchedule(1.0, 2.0, 3.0)),
        "average_jerk": average_jerk,
        "render_svg": lambda traj: render_svg([traj]),
        "save_trajectory": lambda traj: save_trajectory(traj, tmp_path / "x.csv"),
    }[consumer]
    flat = Trajectory(np.linspace(0.0, 3.0, 31), np.zeros((31, 2)))
    with pytest.raises(ValueError, match="^operation needs 6-dimensional rows, got 2$"):
        call(flat)
    assert not (tmp_path / "x.csv").exists()


def test_save_rejects_non_pose(tmp_path):
    with pytest.raises(ValueError):
        save_trajectory(Trajectory([0.0, 1.0], [0.0, 1.0]), tmp_path / "x.csv")


# the largest input np.exp rounds to +0.0, and the next double up
EXP_LAST_ZERO = -745.1332191019412
EXP_FIRST_NONZERO = -745.1332191019411
EXP_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, EXP_ZERO,
                         np.nextafter(EXP_ZERO, -np.inf), np.nextafter(EXP_ZERO, np.inf),
                         EXP_LAST_ZERO, EXP_FIRST_NONZERO])


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       layout=st.sampled_from(["C", "step 2", "step 3", "reversed", "transposed"]))
def test_exp_is_bitwise_np_exp(seed, n, layout):
    """_exp matches np.exp bit for bit and in memory layout, on inputs across
    [-1e5, 710], the subnormal band (-745.2, -708), and nan, +-inf and +-0.

    numpy runs a negatively strided input through libm's exp, which can
    round the last bit differently from its vectorized loop; _exp runs every
    input through the vectorized loop, so there it matches np.exp of a
    contiguous copy."""
    rng = np.random.default_rng(seed)
    step = {"step 2": 2, "step 3": 3}.get(layout, 1)
    base = np.choose(rng.integers(0, 3, n * step),
                     [rng.uniform(-1e5, 710.0, n * step), rng.uniform(-745.2, -708.0, n * step),
                      rng.choice(EXP_SPECIALS, n * step)])
    x = base[::step]
    if layout == "reversed":
        x = base[::-1]
    elif layout == "transposed" and n % 2 == 0:
        x = base.reshape(2, n // 2).T
    with np.errstate(over="ignore"):
        got = _exp(x)
        want = np.exp(np.ascontiguousarray(x) if layout == "reversed" else x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 8, 17])
def test_np_exp_rounds_to_zero_where_exp_skips_it(n):
    """_exp writes +0.0 for every input at or below EXP_ZERO without calling
    np.exp; this pins that np.exp gives exactly that there, so a numpy
    build that rounds differently fails here instead of moving bits."""
    for x in (EXP_ZERO, np.nextafter(EXP_ZERO, -np.inf), -1e4, -np.inf, EXP_LAST_ZERO):
        y = np.exp(np.full(n, x))
        assert (y == 0.0).all() and not np.signbit(y).any()
    assert (np.exp(np.full(n, EXP_FIRST_NONZERO)) > 0.0).all()


def assert_built_as_public(got, want):
    """got, built on the trusted route, equals want, the public
    constructor's object on the same fields: the same type, every array
    field with the same bytes, dtype, shape and read-only flag, every Pose
    field likewise, and every other field equal."""
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
            assert not a.flags.writeable and not b.flags.writeable, field.name
        elif isinstance(b, Pose):
            assert_built_as_public(a, b)
        else:
            assert a == b, field.name


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["translational", "combined"]),
       ablate=st.booleans())
def test_trusted_construction_equals_the_public_constructors(model, scene, endpoints, times,
                                                             seed, mode, ablate):
    """Each object the library builds on the trusted route (sampled Poses
    and TaskSpecs, generalize's GmmModel, regress's Trajectory and the
    batch-checked EvalReport) equals the public constructor's object built
    from its fields."""
    rngs = [np.random.default_rng([seed, i]) for i in range(3)]
    for task in sample_tasks(scene, mode, rngs, *endpoints):
        ends = [Pose(pose.position, pose.orientation) for pose in (task.start, task.goal)]
        assert_built_as_public(task, TaskSpec(*ends))
        adapted = generalize(model, task, ReparamConfig(ablate_covariance=ablate))
        assert_built_as_public(adapted, GmmModel(model.priors, adapted.means, adapted.covs,
                                                 model.phases, task=task, ablated=ablate))
        traj = regress(adapted, times)
        assert_built_as_public(traj, Trajectory(traj.times, traj.values))
        report = evaluate_trajectory(traj, task, scene, traj, model.phases)
        public = EvalReport(*(getattr(report, field.name) for field in fields(EvalReport)))
        assert_built_as_public(report, public)
        assert report == public


# Rotation-vector norms just below, at and just above pi.
NEAR_PI = (np.nextafter(np.pi, 0.0), np.pi, np.nextafter(np.pi, 4.0))


@st.composite
def rows_stacks(draw):
    """(n, D) arrays, D in 1..7 (6 more often), of small numbers and +-0.0,
    and in half the arrays nan and +-inf too; a 6-D row's rotation
    columns may instead hold a vector whose norm sits at a neighbour of pi."""
    dim, n = draw(st.integers(1, 7) | st.just(6)), draw(st.integers(2, 4))
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)
    if draw(st.booleans()):
        entry |= st.sampled_from([np.nan, np.inf, -np.inf])
    values = np.array(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                    min_size=n, max_size=n)))
    for row in values if dim == 6 else ():
        if draw(st.booleans()):
            axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
            if draw(st.booleans()) or not np.linalg.norm(axis) > 0.1:
                axis = np.eye(3)[draw(st.integers(0, 2))] * draw(st.sampled_from([-1.0, 1.0]))
            row[3:] = axis / np.linalg.norm(axis) * draw(st.sampled_from(NEAR_PI))
    return values


def constructs(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return False
    return True


@settings(max_examples=300)
@given(values=rows_stacks())
def test_valid_rows_agrees_with_the_public_constructors(values):
    """_valid_rows is True exactly when Trajectory accepts the rows on a
    valid grid and, for 6-D rows, when every row builds a Pose, whatever
    stack the rows are arranged in."""
    valid = _valid_rows(values)
    assert valid == constructs(Trajectory, np.arange(len(values), dtype=float), values)
    assert _valid_rows(values[None, None]) == valid
    if values.shape[1] == 6:
        assert valid == all(constructs(Pose, row[:3], row[3:]) for row in values)


def test_object_new_appears_only_in_the_trusted_helper():
    """The library's one route past a constructor's checks is data._trusted:
    no other code in the package names object.__new__."""
    found = []
    for path in sorted(Path(gmmgen.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = next((node for node in tree.body if isinstance(node, ast.FunctionDef)
                       and node.name == "_trusted"), None) if path.name == "data.py" else None
        allowed = set(map(id, ast.walk(helper))) if helper else set()
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"
                  and id(node) not in allowed]
    assert found == []
