"""The package's public names, its trusted construction routes, and that
scipy is imported on first use, so the online path never loads it.

Each scipy check runs in a fresh interpreter, since the test process
itself has long loaded scipy.
"""

import ast
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
        "load_trajectory", "phase_deviation", "regress", "resample", "sample_task",
        "save_model", "save_scene", "save_trajectory", "shape_deviation", "trajectory_success",
    ]
    for name in gmmgen.__all__:
        assert getattr(gmmgen, name).__module__.startswith("gmmgen.")


def trusted_routes() -> set:
    """(module, class) of every data._trusted(<class>, ...) call in the
    package's source, the class as its first argument is spelled."""
    routes = set()
    for path in sorted(Path(gmmgen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_trusted"):
                routes.add((path.stem, ast.unparse(node.args[0])))
    return routes


def test_trusted_routes_are_pinned():
    """data._trusted builds an instance past its constructor's checks, so
    each (module, class) that calls it is listed here: a new route past a
    constructor is reviewed, as a new export is."""
    assert trusted_routes() == {("gmr", "Trajectory"), ("metrics", "EvalReport"),
                                ("model", "cls"), ("scene", "Pose"), ("scene", "TaskSpec")}


def test_every_export_has_its_own_docstring():
    """Each name in gmmgen.__all__ carries a docstring of its own: a class in
    its own body, where a dataclass's generated signature does not count,
    and a function in its definition."""
    undocumented = []
    for name in gmmgen.__all__:
        obj = getattr(gmmgen, name)
        doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
        if not (doc and doc.strip()) or doc.startswith(f"{name}("):
            undocumented.append(name)
    assert undocumented == []
