"""The package's public names, and that scipy is imported on first use, so
the online path never loads it.

Each scipy check runs in a fresh interpreter, since the test process
itself has long loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gmmgen
from gmmgen import save_model
from gmmgen.cli import main

SRC = str(Path(gmmgen.__file__).resolve().parents[1])


def scipy_modules_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running code."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def cli_calls(*argvs) -> str:
    return "from gmmgen.cli import main\n" + "".join(
        f"assert main({[str(a) for a in argv]!r}) == 0\n" for argv in argvs)


def test_import_loads_no_scipy():
    assert scipy_modules_after("import gmmgen, gmmgen.cli") == []


def test_generalize_and_regress_load_no_scipy(model, tmp_path):
    save_model(model, tmp_path / "model.json")
    code = cli_calls(["generalize", "--model", tmp_path / "model.json",
                      "--start", "0.15,0.25,0.063,0,0,0", "--goal", "0.70,0.25,0.463,0,0,0.2",
                      "--out-model", tmp_path / "task.json"],
                     ["regress", "--model", tmp_path / "task.json",
                      "--out", tmp_path / "task.csv"])
    assert scipy_modules_after(code) == []
    assert (tmp_path / "task.csv").exists()


def test_fit_loads_scipy_linalg_only(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "demos")]) == 0
    capsys.readouterr()
    loaded = scipy_modules_after(cli_calls(["fit", "--demos", tmp_path / "demos" / "manifest.json",
                                            "--out", tmp_path / "model.json"]))
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.spatial")]


def test_public_names_are_pinned():
    """gmmgen exports exactly these names, and each resolves."""
    assert gmmgen.__all__ == [
        "EvalReport", "FailureReason", "FitConfig", "FitResult", "GmmModel",
        "PhaseSchedule", "Pose", "ReparamConfig", "Scene", "Slab",
        "SuccessThresholds", "SynthConfig", "TaskSpec", "Trajectory",
        "average_jerk", "boundary_error", "default_scene", "em_fit", "fit_gmm",
        "generalize", "generate_demonstrations", "kmeans_init", "load_model", "load_scene",
        "load_trajectory", "phase_deviation", "regress", "resample", "rotation_angle_deg",
        "sample_task", "save_model", "save_scene", "save_trajectory", "shape_deviation",
        "trajectory_success",
    ]
    for name in gmmgen.__all__:
        assert getattr(gmmgen, name).__module__.startswith("gmmgen.")
