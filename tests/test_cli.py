import json
from pathlib import Path

import numpy as np
import pytest

from gmmgen import cli
from gmmgen.cli import _parse_pose, build_parser, main
from gmmgen.data import TaskSpec, Trajectory, load_trajectory, save_trajectory
from gmmgen.model import load_model, save_model
from gmmgen.plot import render_svg
from gmmgen.reparam import generalize

from helpers import random_spd_mixture

SCENE_JSON = Path(__file__).resolve().parents[1] / "scenes" / "shelf_default.json"


def pose_arg(vec) -> str:
    return ",".join(repr(float(v)) for v in vec)


@pytest.fixture(scope="module")
def work(tmp_path_factory, model):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out-dir", str(root / "demos"), "--seed", "0"]) == 0
    save_model(model, root / "model.json")
    return root


@pytest.fixture(scope="module")
def endpoint_args(endpoints):
    start, goal = endpoints
    return pose_arg(start.as_vector()), pose_arg(goal.as_vector())


def test_synth_writes_corpus_and_manifest(work):
    demo_dir = work / "demos"
    files = sorted(p.name for p in demo_dir.glob("demo_*.csv"))
    assert files == [f"demo_{j:02d}.csv" for j in range(5)]
    manifest = json.loads((demo_dir / "manifest.json").read_text())
    assert manifest["files"] == files
    assert manifest["phases"]["grasp_end"] == 1.0
    assert manifest["phases"]["duration"] == 7.0
    assert len(manifest["task"]["start"]) == 6
    assert "slabs" in manifest["scene"]


def test_synth_deterministic(work, tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path / "again"), "--seed", "0"]) == 0
    for j in range(5):
        a = (work / "demos" / f"demo_{j:02d}.csv").read_bytes()
        b = (tmp_path / "again" / f"demo_{j:02d}.csv").read_bytes()
        assert a == b


def test_synth_bad_scene_exit2(tmp_path, capsys):
    missing = tmp_path / "no_such_scene.json"
    code = main(["synth", "--out-dir", str(tmp_path / "out"),
                 "--scene", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_synth_unwritable_manifest_writes_no_demo(tmp_path, capsys):
    """When manifest.json cannot be written, no demo_XX.csv is written
    either, nor is a temporary file left behind."""
    (tmp_path / "manifest.json").mkdir()
    assert main(["synth", "--out-dir", str(tmp_path)]) == 2
    assert f"Is a directory: '{tmp_path / 'manifest.json'}'" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("field", ["box_dims", "levels"])
def test_synth_scene_oversized_integer_exit2(tmp_path, capsys, field):
    scene = json.loads(SCENE_JSON.read_text())
    scene[field][0] = 10**400
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = main(["synth", "--out-dir", str(tmp_path / "out"), "--scene", str(path)])
    assert code == 2
    assert f"error: {path}: scene JSON invalid" in capsys.readouterr().err


def test_fit_matches_library_and_reruns_identically(work, tmp_path, capsys):
    manifest = str(work / "demos" / "manifest.json")
    out1 = tmp_path / "fit1.json"
    out2 = tmp_path / "fit2.json"
    assert main(["fit", "--demos", manifest, "--out", str(out1), "--seed", "0"]) == 0
    assert main(["fit", "--demos", manifest, "--out", str(out2), "--seed", "0"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the CLI reproduces the library fit on the same corpus byte for byte
    assert out1.read_bytes() == (work / "model.json").read_bytes()
    fitted = load_model(out1)
    assert fitted.n_components == 15
    assert fitted.duration == pytest.approx(7.0)


def test_fit_too_many_components_exit2(work, capsys):
    manifest = str(work / "demos" / "manifest.json")
    code = main(["fit", "--demos", manifest, "--out", "/dev/null",
                 "--components", "100000"])
    assert code == 2
    assert "components" in capsys.readouterr().err


@pytest.mark.parametrize("components", [5, 6])
def test_fit_fewer_distinct_rows_than_components_exit2(tmp_path, capsys, components):
    # 8 samples but only 4 distinct rows: one 4-row demonstration listed twice
    rows = np.column_stack([np.linspace(0.0, 0.3, 4), np.zeros((4, 5))])
    demo = tmp_path / "demo.csv"
    save_trajectory(Trajectory(np.arange(4.0), rows), demo)
    code = main(["fit", "--demos", str(demo), str(demo), "--out", str(tmp_path / "m.json"),
                 "--components", str(components)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{components} components need at least as many distinct samples" in err
    assert "got 4 distinct of 8 samples and 4 distinct times" in err


@pytest.mark.parametrize("components", [5, 8])
def test_fit_fewer_distinct_times_than_components_exit2(tmp_path, capsys, components):
    # 8 distinct rows but only 4 distinct times: two demonstrations on one grid
    times = np.arange(4.0)
    paths = []
    for j in range(2):
        rows = np.column_stack([np.linspace(0.0, 0.3, 4) + 0.1 * j, np.zeros((4, 5))])
        paths.append(tmp_path / f"d{j}.csv")
        save_trajectory(Trajectory(times, rows), paths[-1])
    args = ["fit", "--demos", *map(str, paths), "--out", str(tmp_path / "m.json")]
    assert main(args + ["--components", "4"]) == 0
    assert main(args + ["--components", str(components)]) == 2
    err = capsys.readouterr().err
    assert f"{components} components need at least as many distinct samples" in err
    assert "got 8 distinct of 8 samples and 4 distinct times" in err


def test_fit_huge_finite_demo_value_exit2(work, tmp_path, capsys):
    """A finite position too large to square fails k-means with the pooled
    row named, exit 2, before any overflow warning (warnings are errors)."""
    demo = load_trajectory(work / "demos" / "demo_00.csv")
    values = demo.values.copy()
    values[5, 0] = 1e160
    big = tmp_path / "big.csv"
    save_trajectory(Trajectory(demo.times, values), big)
    code = main(["fit", "--demos", str(big), str(work / "demos" / "demo_01.csv"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert capsys.readouterr().err == ("error: dataset row 5 is too large to cluster: the RMS "
                                       "spread of the rows overflows\n")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", [1e152, 1e153, 1e154])
def test_fit_demo_value_whose_mahalanobis_distance_overflows_exit2(work, tmp_path, capsys,
                                                                   value):
    """A finite position small enough for k-means but whose squared
    distance to a component overflows fails EM with the pooled row named,
    exit 2, before any overflow warning (warnings are errors)."""
    demo = load_trajectory(work / "demos" / "demo_00.csv")
    values = demo.values.copy()
    values[5, 0] = value
    big = tmp_path / "big.csv"
    save_trajectory(Trajectory(demo.times, values), big)
    code = main(["fit", "--demos", str(big), str(work / "demos" / "demo_01.csv"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert capsys.readouterr().err == ("error: dataset row 5 is too large to fit: its squared "
                                       "Mahalanobis distance to a component overflows\n")
    assert not (tmp_path / "m.json").exists()


def test_fit_csv_demos_too_short_for_default_phases_exit2(tmp_path, capsys):
    """CSV demonstrations carry no phases, so 1.5 s ones cannot take the
    default 1 s holds; the error says so."""
    times = np.linspace(0.0, 1.5, 151)
    paths = []
    for j in range(2):
        rows = np.column_stack([np.linspace(0.0, 0.3, 151) + 0.1 * j, np.zeros((151, 5))])
        paths.append(tmp_path / f"d{j}.csv")
        save_trajectory(Trajectory(times, rows), paths[-1])
    code = main(["fit", "--demos", *map(str, paths), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert ("demonstrations of 1.5 s have no default phases: their duration must exceed the "
            "1.0 s grasp hold plus the 1.0 s release hold, or phases must be passed"
            in capsys.readouterr().err)
    assert not (tmp_path / "m.json").exists()


def test_generalize_identity_matches_regress(work, tmp_path, endpoint_args):
    start, goal = endpoint_args
    ref_csv = tmp_path / "ref.csv"
    gen_csv = tmp_path / "gen.csv"
    assert main(["regress", "--model", str(work / "model.json"),
                 "--out", str(ref_csv)]) == 0
    assert main(["generalize", "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal,
                 "--out-model", str(tmp_path / "gen.json"),
                 "--out-traj", str(gen_csv)]) == 0
    ref = load_trajectory(ref_csv)
    gen = load_trajectory(gen_csv)
    assert ref.n_samples == 701
    assert np.allclose(gen.values, ref.values, atol=1e-9)
    # regress accepts the generalized model file as well
    out2 = tmp_path / "gen2.csv"
    assert main(["regress", "--model", str(tmp_path / "gen.json"),
                 "--out", str(out2)]) == 0
    assert np.allclose(load_trajectory(out2).values, gen.values, atol=1e-12)


def test_generalize_ablation_changes_path_not_endpoints(work, tmp_path):
    start = "0.15,0.25,0.063,0.0,0.0,0.0"
    goal = "0.7,0.25,0.463,0.0,0.0,0.0"
    full_csv = tmp_path / "full.csv"
    abl_csv = tmp_path / "ablated.csv"
    assert main(["generalize", "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal,
                 "--out-model", str(tmp_path / "full.json"),
                 "--out-traj", str(full_csv)]) == 0
    assert main(["generalize", "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal, "--ablate-covariance",
                 "--out-model", str(tmp_path / "ablated.json"),
                 "--out-traj", str(abl_csv)]) == 0
    full = load_trajectory(full_csv)
    ablated = load_trajectory(abl_csv)
    diff = np.abs(full.values - ablated.values)
    assert diff.max() > 1e-3  # the transports genuinely differ
    # but both variants hit the same boundary poses to sub-millimeter
    assert np.abs(full.values[0] - ablated.values[0]).max() < 5e-4
    assert np.abs(full.values[-1] - ablated.values[-1]).max() < 5e-4
    goal_vec = np.array([float(v) for v in goal.split(",")])
    assert np.abs(full.values[-1][:3] - goal_vec[:3]).max() < 2e-3
    assert np.abs(ablated.values[-1][:3] - goal_vec[:3]).max() < 2e-3


def test_generalize_reads_generalized_model_as_such(work, tmp_path):
    gen = tmp_path / "gen.json"
    assert main(["generalize", "--model", str(work / "model.json"),
                 "--start", "0.15,0.25,0.063,0.0,0.0,0.2",
                 "--goal", "0.7,0.25,0.463,0.0,0.0,-0.3", "--out-model", str(gen)]) == 0
    start, goal = "0.25,0.25,0.463,0.0,0.0,0.1", "0.55,0.25,0.063,0.0,0.0,0.0"
    again = tmp_path / "again.json"
    assert main(["generalize", "--model", str(gen), "--start", start, "--goal", goal,
                 "--out-model", str(again)]) == 0
    # the generalized model is the source, read back from its file
    want = tmp_path / "want.json"
    task = TaskSpec(_parse_pose(start), _parse_pose(goal))
    save_model(generalize(load_model(gen), task), want)
    assert again.read_bytes() == want.read_bytes()


def test_generalize_bad_pose_exit2(work, capsys):
    # too few numbers, a non-number, and a rotation past pi all name the pose
    for start in ("1,2,3", "1,2,3,a,0,0", "0,0,0,4,0,0"):
        code = main(["generalize", "--model", str(work / "model.json"),
                     "--start", start, "--goal", "0,0,0,0,0,0",
                     "--out-model", "/dev/null"])
        assert code == 2
        assert f"error: pose '{start}': " in capsys.readouterr().err


@pytest.mark.parametrize("where", ["pose", "csv"])
def test_huge_finite_rotation_entry_exit2_with_one_error_line(work, tmp_path, endpoint_args,
                                                              capsys, where):
    """A rotation entry whose square overflows is rejected as a rotation
    past pi, with the error line alone on stderr: no numpy overflow
    warning comes first, for a --start pose or row 2 of a trajectory CSV."""
    start, goal = endpoint_args
    model = str(work / "model.json")
    if where == "pose":
        argv = ["generalize", "--model", model, "--start", "0,0,0,1e200,0,0", "--goal", goal,
                "--out-model", str(tmp_path / "gen.json")]
        want = "error: pose '0,0,0,1e200,0,0': rotation-vector magnitude inf rad must stay below pi"
    else:
        traj_csv = tmp_path / "traj.csv"
        traj_csv.write_text("t,px,py,pz,rx,ry,rz\n0,0,0,0,1e200,0,0\n1,0,0,0,0,0,0\n")
        argv = ["evaluate", "--traj", str(traj_csv), "--model", model, "--start", start,
                "--goal", goal]
        want = f"error: {traj_csv}: row 2: rotation-vector magnitude inf rad must stay below pi"
    assert main(argv) == 2
    assert capsys.readouterr().err == want + "\n"


def test_generalize_rejected_trajectory_writes_no_file(tmp_path, capsys):
    """A thin mixture whose regressed first pose turns past pi: regress
    rejects the trajectory, and neither output file is written."""
    rng = np.random.default_rng(31)
    scale = rng.choice([0.3, 1.0])
    model = random_spd_mixture(rng, 5, 6, thin=True, scale=scale)
    first, last = model.means[0, 1:], model.means[-1, 1:]
    start = rng.uniform(-1.0, 1.0, 6)
    goal = start + rng.uniform(-30.0, 30.0, 6) * (last - first)
    save_model(model, tmp_path / "thin.json")
    out_model, out_traj = tmp_path / "gen.json", tmp_path / "gen.csv"
    code = main(["generalize", "--model", str(tmp_path / "thin.json"),
                 f"--start={pose_arg(start)}", f"--goal={pose_arg(goal)}",
                 "--out-model", str(out_model), "--out-traj", str(out_traj)])
    assert code == 2
    assert ("error: sample 0: rotation-vector magnitude 3.680180 rad must stay below pi"
            in capsys.readouterr().err)
    assert not out_model.exists()
    assert not out_traj.exists()


@pytest.mark.parametrize("unwritable", ["--out-model", "--out-traj"])
def test_generalize_unwritable_output_writes_no_file(work, tmp_path, endpoint_args, capsys,
                                                     unwritable):
    """An OSError while writing either output leaves neither output, nor a
    temporary file, behind; the error names the output path."""
    start, goal = endpoint_args
    outs = {"--out-model": tmp_path / "gen.json", "--out-traj": tmp_path / "gen.csv"}
    outs[unwritable] = tmp_path / "nodir" / outs[unwritable].name
    code = main(["generalize", "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal,
                 *(token for flag, path in outs.items() for token in (flag, str(path)))])
    assert code == 2
    assert f"No such file or directory: '{outs[unwritable]}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelled", [lambda out: out,
                                     lambda out: out.parent / "x" / ".." / out.name],
                         ids=["same", "dotdot"])
def test_generalize_two_outputs_naming_one_file_writes_nothing(work, tmp_path, endpoint_args,
                                                              capsys, spelled):
    """--out-model and --out-traj resolving to one file would leave only the
    trajectory there: both are refused, and nothing is written."""
    start, goal = endpoint_args
    out = tmp_path / "same.json"
    code = main(["generalize", "--model", str(work / "model.json"), "--start", start,
                 "--goal", goal, "--out-model", str(out), "--out-traj", str(spelled(out))])
    assert code == 2
    assert (f"error: outputs {out} and {spelled(out)} are the same file"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags",[("--start", "--goal"), ("--sta", "--go")])
def test_pose_with_negative_first_number_as_its_own_token(work, tmp_path, flags):
    """"--start -0.38,..." reads the pose as "--start=-0.38,..." does, in
    generalize and evaluate, also through an abbreviated flag."""
    start, goal = "-0.38,0.25,0.46,0.0,0.0,0.0", "-0.1,-0.25,0.063,0.0,0.0,-0.2"
    model = str(work / "model.json")
    spelled = {"joined": ["--start=" + start, "--goal=" + goal],
               "separate": [flags[0], start, flags[1], goal]}
    for name, pose in spelled.items():
        d = tmp_path / name
        d.mkdir()
        assert main(["generalize", "--model", model, *pose, "--out-model", str(d / "gen.json"),
                     "--out-traj", str(d / "gen.csv")]) == 0
        assert main(["evaluate", "--traj", str(tmp_path / "joined" / "gen.csv"),
                     "--model", model, *pose, "--out", str(d / "report.json")]) == 0
    for file in ("gen.json", "gen.csv", "report.json"):
        assert (tmp_path / "separate" / file).read_bytes() == \
            (tmp_path / "joined" / file).read_bytes()


def test_evaluate_reports_success(work, tmp_path, endpoint_args):
    start, goal = endpoint_args
    traj_csv = tmp_path / "traj.csv"
    assert main(["generalize", "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal,
                 "--out-model", str(tmp_path / "gen.json"),
                 "--out-traj", str(traj_csv)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--traj", str(traj_csv),
                 "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal,
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["success"] is True
    assert report["failure_reason"] == "none"
    assert report["goal_error_mm"] < 2.0


def test_evaluate_missing_traj_exit2(work, tmp_path, endpoint_args, capsys):
    start, goal = endpoint_args
    missing = tmp_path / "absent.csv"
    code = main(["evaluate", "--traj", str(missing),
                 "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_benchmark_outputs_and_reruns_byte_identical(work, tmp_path):
    args = ["benchmark", "--model", str(work / "model.json"),
            "--mode", "combined", "--trials", "4", "--seed", "1"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("summary.csv", "trials.jsonl"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
    header, row = (tmp_path / "a" / "summary.csv").read_text().splitlines()
    assert header.startswith("method,success_rate,")
    assert row.startswith("full,")


def test_benchmark_unwritable_trials_writes_no_summary(work, tmp_path, capsys):
    """When trials.jsonl cannot be written, summary.csv is not written
    either, nor is a temporary file left behind: a stale trials file never
    sits beside a fresh summary."""
    (tmp_path / "trials.jsonl").mkdir()
    assert main(["benchmark", "--model", str(work / "model.json"), "--trials", "2",
                 "--out-dir", str(tmp_path)]) == 2
    assert f"Is a directory: '{tmp_path / 'trials.jsonl'}'" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["trials.jsonl"]


def test_benchmark_ablated_label(work, tmp_path):
    assert main(["benchmark", "--model", str(work / "model.json"),
                 "--mode", "translational", "--trials", "2", "--seed", "3",
                 "--ablate-covariance", "--out-dir", str(tmp_path)]) == 0
    row = (tmp_path / "summary.csv").read_text().splitlines()[1]
    assert row.startswith("ablated,")


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_benchmark_method_label_with_a_comma_exit2(work, tmp_path, capsys, via_config):
    """A label that would add a field to the summary.csv row is refused
    before anything is written."""
    out = tmp_path / "out"
    args = ["benchmark", "--model", str(work / "model.json"), "--trials", "1",
            "--out-dir", str(out)]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "full,v2"}))
        args += ["--config", str(cfg)]
    else:
        args += ["--method", "full,v2"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: method must be a non-empty string")
    assert not out.exists()


def test_plot_svg_structure(work, tmp_path):
    demo_files = sorted(str(p) for p in (work / "demos").glob("demo_*.csv"))
    out_svg = tmp_path / "fig.svg"
    assert main(["plot", "--traj", *demo_files, "--scene", str(SCENE_JSON),
                 "--out", str(out_svg)]) == 0
    text = out_svg.read_text()
    # one x-z path plus three position and three rotation series per file
    assert text.count("<polyline") == 7 * len(demo_files)
    # slab rectangles on top of the background and three panel frames
    assert text.count("<rect") == 1 + 3 + 6
    first_points = text.split('points="')[1].split('"')[0]
    assert len(first_points.split()) == 701

    bare = tmp_path / "bare.svg"
    assert main(["plot", "--traj", demo_files[0], "--out", str(bare)]) == 0
    assert bare.read_text().count("<rect") == 1 + 3


def test_render_svg_needs_a_trajectory():
    with pytest.raises(ValueError, match="^need at least one trajectory to plot$"):
        render_svg([])


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"demos": 2, "seed": 3}))
    assert main(["synth", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "cfg_out")]) == 0
    assert len(list((tmp_path / "cfg_out").glob("demo_*.csv"))) == 2
    assert main(["synth", "--config", str(cfg), "--demos", "3",
                 "--out-dir", str(tmp_path / "flag_out")]) == 0
    assert len(list((tmp_path / "flag_out").glob("demo_*.csv"))) == 3


@pytest.mark.parametrize("spelled", [lambda cfg: [f"--config={cfg}"],
                                     lambda cfg: ["--conf", str(cfg)]],
                         ids=["equals", "abbreviated"])
def test_config_file_spellings_argparse_accepts(tmp_path, capsys, spelled):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"demos": 2, "seed": 3}))
    assert main(["synth", *spelled(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert len(list((tmp_path / "out").glob("demo_*.csv"))) == 2
    cfg.write_text(json.dumps({"sed": 3}))
    assert main(["synth", *spelled(cfg), "--out-dir", str(tmp_path / "x")]) == 2
    assert f"{cfg}: unknown config key 'sed' for 'synth'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_invalid_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code = main(["synth", "--config", str(bad), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_config_file_unknown_key_exit2(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"demos": 2, "noise-pos-mm": 1.0, "sed": 3}))
    code = main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert f"{cfg}: unknown config key 'sed' for 'synth'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # a flag of another subcommand is unknown here too
    cfg.write_text(json.dumps({"components": 3}))
    code = main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert code == 2
    assert "unknown config key 'components'" in capsys.readouterr().err


@pytest.mark.parametrize("command,config", [
    ("benchmark", {"trials": 2.5}),
    ("benchmark", {"mode": "sideways"}),
    ("benchmark", {"ablate-covariance": 1}),
    ("evaluate", {"collision_samples": 3.7}),
    ("evaluate", {"rate": "100"}),
    ("synth", {"seed": True}),
    ("fit", {"demos": "manifest.json"}),
])
def test_config_file_wrong_type_exit2(tmp_path, capsys, command, config):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg)])
    assert code == 2
    key = next(iter(config))
    assert f"{cfg}: config key '{key}' for '{command}' must be" in capsys.readouterr().err


def test_config_file_number_for_float_flag(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"demos": 1, "lift": 0}))
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["lift"] == 0.0 and isinstance(manifest["config"]["lift"], float)


@pytest.mark.parametrize("rate", ["inf", "nan", "1e308"])
@pytest.mark.parametrize("command", ["synth", "generalize", "regress", "evaluate",
                                     "benchmark"])
def test_non_finite_rate_exit2(work, tmp_path, endpoint_args, capsys, command, rate):
    start, goal = endpoint_args
    model = str(work / "model.json")
    out = tmp_path / "out"
    argv = {
        "synth": ["--out-dir", str(out)],
        "generalize": ["--model", model, "--start", start, "--goal", goal,
                       "--out-model", str(out), "--out-traj", str(tmp_path / "t.csv")],
        "regress": ["--model", model, "--out", str(out)],
        "evaluate": ["--traj", str(work / "demos" / "demo_00.csv"), "--model", model,
                     "--start", start, "--goal", goal, "--out", str(out)],
        "benchmark": ["--model", model, "--trials", "1", "--out-dir", str(out)],
    }[command]
    assert main([command, *argv, "--rate", rate]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # 1e308 is finite, but duration * rate, the sample count, is not
    assert ("rate 1e+308 Hz over a duration of 7 s" if rate == "1e308"
            else "finite and positive") in err
    assert not out.exists()


@pytest.mark.parametrize("argv,field", [
    (["synth", "--lift", "nan"], "lift_height"),
    (["synth", "--noise-rot-deg", "inf"], "noise_rot"),
    (["fit", "--tol", "inf"], "loglik_tol"),
    (["fit", "--cov-floor", "inf"], "cov_floor")])
def test_non_finite_settings_exit2(work, tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    inputs = {"synth": ["--out-dir", str(out)],
              "fit": ["--demos", str(work / "demos" / "manifest.json"), "--out", str(out)]}
    assert main(argv + inputs[argv[0]]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be finite" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc,keys,value,message", [
    ("scene", ("levels",), "04", "levels must hold only JSON numbers"),
    ("scene", ("box_dims",), [True, 0.15, 0.12], "box_dims must hold only JSON numbers"),
    ("scene", ("length_range",), "19", "length_range must hold only JSON numbers"),
    ("scene", ("slabs", 0, "min", 0), "-0.07", "slab 0 min must hold only JSON numbers"),
    ("model", ("D",), 6.7, "D must be an integer, got 6.7"),
    ("model", ("T",), "7.0", "T must hold only JSON numbers"),
    ("model", ("components", 0, "pi"), "0.1", "component 0: pi must hold only JSON numbers"),
    ("model", ("components", 1, "mu", 0), True, "component 1: mu must hold only JSON numbers"),
    ("gen", ("task", "goal", 0), "0.7",
     "generalized-model JSON invalid: task goal must hold only JSON numbers"),
    ("manifest", ("phases", "grasp_end"), True,
     "invalid manifest: grasp_end must hold only JSON numbers")])
def test_loaders_reject_strings_and_bools_as_numbers(work, tmp_path, capsys, model, endpoints,
                                                     doc, keys, value, message):
    sources = {"scene": SCENE_JSON, "model": work / "model.json",
               "gen": tmp_path / "gen.json", "manifest": work / "demos" / "manifest.json"}
    save_model(generalize(model, TaskSpec(*endpoints)), sources["gen"])
    obj = json.loads(sources[doc].read_text())
    if doc == "manifest":  # the edited copy lives elsewhere, so name the demos in full
        obj["files"] = [str(work / "demos" / name) for name in obj["files"]]
    node = obj
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    argv = {"scene": ["synth", "--scene", str(path), "--out-dir", str(out)],
            "manifest": ["fit", "--demos", str(path), "--out", str(out)]}.get(
                doc, ["regress", "--model", str(path), "--out", str(out)])
    assert main(argv) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_nan_threshold_exit2(work, tmp_path, capsys):
    args = ["evaluate", "--traj", str(work / "demos" / "demo_00.csv"),
            "--model", str(work / "model.json"),
            "--start", "0.20,0.25,0.063,0,0,0", "--goal", "0.50,0.25,0.463,0,0,0"]
    report = tmp_path / "report.json"
    assert main(args + ["--out", str(report)]) == 0
    assert json.loads(report.read_text())["failure_reason"] == "boundary"
    nan_report = tmp_path / "nan.json"
    assert main(args + ["--max-boundary-pos", "nan", "--out", str(nan_report)]) == 2
    assert "max_boundary_pos_mm must be finite and positive, got nan" in capsys.readouterr().err
    assert not nan_report.exists()


def test_regress_parses_model_once_and_locates_errors(work, tmp_path, endpoint_args,
                                                      monkeypatch, capsys):
    start, goal = endpoint_args
    gen = tmp_path / "gen.json"
    assert main(["generalize", "--model", str(work / "model.json"),
                 "--start", start, "--goal", goal, "--out-model", str(gen)]) == 0
    parses = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: parses.append(1) or real_loads(*a, **k))
    assert main(["regress", "--model", str(gen), "--out", str(tmp_path / "t.csv")]) == 0
    assert len(parses) == 1
    monkeypatch.undo()

    bad = tmp_path / "bad_task.json"
    obj = json.loads(gen.read_text())
    obj["task"]["start"] = obj["task"]["start"][:3]
    bad.write_text(json.dumps(obj))
    code = main(["regress", "--model", str(bad), "--out", str(tmp_path / "u.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}: generalized-model JSON invalid" in err
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("field", ["mu", "sigma", "pi"])
def test_regress_component_missing_field_exit2(work, tmp_path, capsys, field):
    obj = json.loads((work / "model.json").read_text())
    del obj["components"][3][field]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(["regress", "--model", str(bad), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert f"{bad}: component 3: missing field '{field}'" in capsys.readouterr().err


def test_regress_component_not_an_object_exit2(work, tmp_path, capsys):
    obj = json.loads((work / "model.json").read_text())
    obj["components"][2] = [1.0, 2.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(["regress", "--model", str(bad), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert f"{bad}: component 2: must be a JSON object" in capsys.readouterr().err


def test_fit_manifest_incomplete_phases_exit2(work, tmp_path, capsys):
    manifest = json.loads((work / "demos" / "manifest.json").read_text())
    manifest["files"] = [str(work / "demos" / f) for f in manifest["files"]]
    del manifest["phases"]["release_start"]
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    code = main(["fit", "--demos", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert f"{bad}: invalid manifest: 'release_start'" in capsys.readouterr().err


@pytest.mark.parametrize("files", ["demo_00.csv", [], ["demo_00.csv", 3], None])
def test_fit_manifest_files_not_a_list_of_names_exit2(work, tmp_path, capsys, files):
    """A string is not read one character at a time as a list of names."""
    manifest = json.loads((work / "demos" / "manifest.json").read_text())
    manifest["files"] = files
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    out = tmp_path / "m.json"
    assert main(["fit", "--demos", str(bad), "--out", str(out)]) == 2
    assert (f'error: {bad}: invalid manifest: "files" must be a non-empty list of strings, '
            f"got {files!r}\n") == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--grasp-end", "--release-start"])
def test_fit_lone_phase_flag_exit2(work, tmp_path, capsys, flag):
    out = tmp_path / "m.json"
    code = main(["fit", "--demos", str(work / "demos" / "manifest.json"),
                 "--out", str(out), flag, "1.7"])
    assert code == 2
    assert ("error: --grasp-end and --release-start must be given together"
            in capsys.readouterr().err)
    assert not out.exists()


def test_fit_phase_flags_pair(work, tmp_path):
    out = tmp_path / "m.json"
    assert main(["fit", "--demos", str(work / "demos" / "manifest.json"), "--out", str(out),
                 "--max-iters", "2", "--grasp-end", "1.7", "--release-start", "5.5"]) == 0
    assert json.loads(out.read_text())["phases"] == {"grasp_end": 1.7, "release_start": 5.5}


def test_fit_manifest_duration_mismatch_exit2(work, tmp_path, capsys):
    manifest = json.loads((work / "demos" / "manifest.json").read_text())
    manifest["files"] = [str(work / "demos" / f) for f in manifest["files"]]
    manifest["phases"]["duration"] = 8.0
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    out = tmp_path / "m.json"
    assert main(["fit", "--demos", str(bad), "--out", str(out)]) == 2
    assert ("error: phase schedule duration 8.0 must match the demonstrations' duration 7.0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["regress", "generalize", "evaluate", "benchmark"])
def test_infinite_model_duration_exit2(work, tmp_path, endpoint_args, capsys, command):
    text = (work / "model.json").read_text()
    assert '"T": 7.0,' in text
    bad = tmp_path / "model.json"
    bad.write_text(text.replace('"T": 7.0,', '"T": 1e999,'))
    start, goal = endpoint_args
    out = tmp_path / "out"
    argv = {
        "regress": ["--out", str(out)],
        "generalize": ["--start", start, "--goal", goal, "--out-model", str(out)],
        "evaluate": ["--traj", str(work / "demos" / "demo_00.csv"), "--start", start,
                     "--goal", goal, "--out", str(out)],
        "benchmark": ["--trials", "1", "--out-dir", str(out)],
    }[command]
    assert main([command, "--model", str(bad), *argv]) == 2
    assert (f"error: {bad}: phase boundaries must satisfy "
            "0 < grasp_end < release_start < duration < inf") in capsys.readouterr().err
    assert not out.exists()


def test_regress_asymmetric_sigma_exit2(work, tmp_path, capsys):
    obj = json.loads((work / "model.json").read_text())
    obj["components"][3]["sigma"][1] *= 1.01  # the (t, px) entry only
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "t.csv"
    assert main(["regress", "--model", str(bad), "--out", str(out)]) == 2
    assert f"error: {bad}: component 3: covariance must be symmetric" in capsys.readouterr().err
    assert not out.exists()


def scene_with_slab(tmp_path, lo, hi):
    scene = json.loads(SCENE_JSON.read_text())
    scene["slabs"].append({"min": lo, "max": hi})
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return path


@pytest.mark.parametrize("case", ["lift", "blocked start"])
def test_synth_impossible_demonstrations_exit2(tmp_path, capsys, case):
    out = tmp_path / "out"
    argv = (["--lift", "1.0"] if case == "lift" else
            ["--scene", str(scene_with_slab(tmp_path, [0.15, 0.2, 0.0], [0.25, 0.3, 0.2]))])
    assert main(["synth", "--out-dir", str(out), *argv]) == 2
    assert ("error: demonstration 0 kept colliding after 10 noise reductions"
            in capsys.readouterr().err)
    assert not out.exists()


def test_benchmark_filled_cabinet_exit2(work, tmp_path, capsys):
    filled = scene_with_slab(tmp_path, [-0.05, 0.0, 0.0], [0.85, 0.45, 0.535])
    out = tmp_path / "out"
    assert main(["benchmark", "--model", str(work / "model.json"), "--scene", str(filled),
                 "--trials", "1", "--out-dir", str(out)]) == 2
    assert (capsys.readouterr().err
            == "error: trial 0, start: no collision-free rest pose found in 100 draws\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be at least 0"),
    ("--trials", "0", "trials must be at least 1"),
    ("--trials", "-3", "trials must be at least 1"),
])
def test_benchmark_out_of_range_count_exit2(work, tmp_path, capsys, flag, value, message):
    """The library names the value: numpy's seeding error did not."""
    out = tmp_path / "out"
    args = {"--seed": "0", "--trials": "1", flag: value}
    assert main(["benchmark", "--model", str(work / "model.json"), "--out-dir", str(out),
                 *(token for item in args.items() for token in item)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_infinite_slab_corner_exit2(tmp_path, capsys):
    path = scene_with_slab(tmp_path, [0.0, 0.0, 0.0], [1.0, 1.0, 123.456])
    path.write_text(path.read_text().replace("123.456", "1e999"))
    out = tmp_path / "out"
    assert main(["synth", "--scene", str(path), "--out-dir", str(out)]) == 2
    # the default scene's 6 slabs come first, so the appended one is slab 6
    assert f"error: {path}: slab 6: slab corners must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_ref_and_stdout(work, tmp_path, endpoint_args, capsys):
    start, goal = endpoint_args
    model = str(work / "model.json")
    reference = tmp_path / "reference.csv"
    assert main(["regress", "--model", model, "--out", str(reference)]) == 0
    args = ["evaluate", "--traj", str(work / "demos" / "demo_00.csv"), "--model", model,
            "--start", start, "--goal", goal]
    capsys.readouterr()
    assert main(args) == 0  # no --out: the report goes to stdout
    default_ref = capsys.readouterr().out
    assert json.loads(default_ref)["shape_deviation"] > 0.0
    # the model's own regression, read back from CSV, is the default reference
    assert main(args + ["--ref", str(reference)]) == 0
    assert capsys.readouterr().out == default_ref
    assert main(args + ["--ref", str(work / "demos" / "demo_00.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["shape_deviation"] == 0.0


def test_config_switch_true_matches_flag(work, tmp_path, endpoint_args):
    start, goal = endpoint_args
    cfg = tmp_path / "generalize.json"
    cfg.write_text(json.dumps({"ablate-covariance": True}))
    args = ["generalize", "--model", str(work / "model.json"), "--start", start,
            "--goal", goal, "--out-model"]
    assert main(args + [str(tmp_path / "flag.json"), "--ablate-covariance"]) == 0
    assert main(args + [str(tmp_path / "cfg.json"), "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "cfg.json").read_text())["ablate_covariance"] is True
    assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "flag.json").read_bytes()


def test_cli_flags_are_pinned():
    """Each subcommand takes exactly these flags, in this order, besides --help."""
    thresholds = ["--max-boundary-pos", "--max-boundary-rot", "--collision-samples"]
    _, registry = build_parser()
    assert {name: [flag for action in sub._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")]
            for name, sub in registry.items()} == {
        "synth": ["--config", "--out-dir", "--scene", "--demos", "--lift", "--noise-pos-mm",
                  "--noise-rot-deg", "--rate", "--seed"],
        "fit": ["--config", "--demos", "--components", "--out", "--seed", "--max-iters", "--tol",
                "--cov-floor", "--grasp-end", "--release-start"],
        "generalize": ["--config", "--model", "--start", "--goal", "--ablate-covariance",
                       "--out-model", "--out-traj", "--rate"],
        "regress": ["--config", "--model", "--out", "--rate"],
        "evaluate": ["--config", "--traj", "--model", "--start", "--goal", "--scene", "--ref",
                     "--out", "--rate", *thresholds],
        "benchmark": ["--config", "--model", "--scene", "--mode", "--trials", "--seed",
                      "--out-dir", "--ablate-covariance", "--method", "--ref", "--rate",
                      *thresholds],
        "plot": ["--config", "--traj", "--scene", "--out"],
    }


def test_every_flag_has_help():
    """Every subcommand flag but --help says what it sets, and each help
    text renders."""
    _, registry = build_parser()
    assert [(name, action.option_strings) for name, sub in registry.items()
            for action in sub._actions
            if action.option_strings and "--help" not in action.option_strings
            and not (action.help and action.help.strip())] == []
    for sub in registry.values():
        sub.format_help()  # a bad %-placeholder raises here


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["fit", "--config"], "argument --config: expected one argument"),
], ids=["no-command", "config-without-path"])
def test_usage_errors_exit_2_through_argparse(capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert message in capsys.readouterr().err


def test_unexpected_exception_exits_1(work, tmp_path, capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_model", broken)
    assert main(["regress", "--model", str(work / "model.json"),
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == "internal error: boom\n"
    assert list(tmp_path.iterdir()) == []
