from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmmgen.bench import default_times
from gmmgen.data import (CSV_HEADER, PhaseSchedule, Pose, TaskSpec, Trajectory,
                         TrajectoryFormatError, load_trajectory, resample,
                         save_trajectory)
from gmmgen.metrics import average_jerk, phase_deviation
from gmmgen.model import FitConfig
from gmmgen.plot import render_svg
from gmmgen.scene import SuccessThresholds, trajectory_success
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


def test_trajectory_1d_values_allowed():
    t = Trajectory([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert t.dim == 1
    with pytest.raises(ValueError):
        t.positions()  # pose accessors need 6-DoF rows


def test_resample_midpoint_average():
    out = resample(line_traj(), 3)
    assert np.allclose(out.values[1], 0.5 * (line_traj().values[0] + line_traj().values[1]))
    assert np.allclose(out.values[0], line_traj().values[0])
    assert np.allclose(out.values[-1], line_traj().values[-1])


def test_resample_identity_on_uniform_grid():
    times = np.linspace(0.0, 2.0, 9)
    vals = np.sin(times)
    traj = Trajectory(times, vals)
    out = resample(traj, 9)
    assert np.array_equal(out.times, times)
    assert np.allclose(out.values[:, 0], vals, atol=1e-15)


def test_resample_piecewise_example():
    # {(0,0),(1,2),(2,2)} at n=5 -> {0,1,2,2,2}
    traj = Trajectory([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    out = resample(traj, 5)
    assert np.allclose(out.values[:, 0], [0.0, 1.0, 2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        resample(traj, 1)


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


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


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
    """Every reader of pose columns goes through Trajectory.positions() and
    orientations(), so a non-pose trajectory fails with their one error."""
    task = TaskSpec(Pose(np.zeros(3), np.zeros(3)), Pose(np.ones(3), np.zeros(3)))
    call = {
        "trajectory_success": lambda traj: trajectory_success(traj, scene, task),
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
