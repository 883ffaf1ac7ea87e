"""Golden digests of the CLI's output files and of the online queries.

Every file the pipeline writes is hashed with sha256 and compared with the
committed digests in tests/data/golden_digests.json, so any change of one
output bit fails here.  So are the regress(generalize()) values of the
benchmark's adapt task pool, which no CLI output covers.  The digests
hold for the numpy, scipy and BLAS versions recorded beside them; on
other versions the test is skipped and names both sets, since
floating-point results may legitimately differ.

A change that moves an output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed outputs in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from gmmgen import FitConfig, SynthConfig, default_scene, fit_gmm, generate_demonstrations
from gmmgen.bench import default_times
from gmmgen.cli import main
from gmmgen.gmr import regress
from gmmgen.reparam import ReparamConfig, generalize

from helpers import adapt_pool

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
# the README quick start's task
START, GOAL = "0.15,0.25,0.063,0,0,0", "0.70,0.25,0.463,0,0,0.2"


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def output_digests(work: Path) -> dict:
    """{output name: sha256} for every file the pipeline below writes."""
    outputs = []
    for seed in (0, 7):
        demos, model = work / f"demos_{seed}", work / f"model_{seed}.json"
        run("synth", "--out-dir", demos, "--seed", seed)
        run("fit", "--demos", demos / "manifest.json", "--out", model)
        outputs.append((f"fit seed {seed} model.json", model))
    model = work / "model_0.json"
    for name, flags in (("full", []), ("ablated", ["--ablate-covariance"])):
        task_model, traj = work / f"task_model_{name}.json", work / f"task_traj_{name}.csv"
        run("generalize", "--model", model, "--start", START, "--goal", GOAL, *flags,
            "--out-model", task_model, "--out-traj", traj)
        outputs += [(f"generalize {name} task_model.json", task_model),
                    (f"generalize {name} task_traj.csv", traj)]
    report = work / "report.json"
    run("evaluate", "--traj", work / "task_traj_full.csv", "--model", model,
        "--start", START, "--goal", GOAL, "--out", report)
    outputs.append(("evaluate report.json", report))
    for mode in ("combined", "translational"):
        for name, flags in (("full", []), ("ablated", ["--ablate-covariance"])):
            out = work / f"bench_{mode}_{name}"
            run("benchmark", "--model", model, "--mode", mode, "--trials", 40, "--seed", 11,
                *flags, "--out-dir", out)
            outputs += [(f"benchmark {mode} {name} {file}", out / file)
                        for file in ("trials.jsonl", "summary.csv")]
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs}


def query_digests(model, scene) -> dict:
    """{name: sha256} of the stacked (32, n, 6) regress(generalize()) values
    of the adapt pool for run seed 1, for each method."""
    times = default_times(model.duration)
    tasks = adapt_pool(model, scene)
    digests = {}
    for name, ablate in (("full", False), ("ablated", True)):
        config = ReparamConfig(ablate_covariance=ablate)
        values = np.stack([regress(generalize(model, task, config), times).values
                           for task in tasks])
        digests[f"adapt pool seed 1 {name} values"] = hashlib.sha256(values.tobytes()).hexdigest()
    return digests


def golden_digests() -> dict:
    """The committed digests; skips unless they were recorded on these versions."""
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["versions"] != versions():
        pytest.skip(f"digests were recorded with {golden['versions']}, "
                    f"this environment has {versions()}")
    return golden


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    """fit (synth seeds 0 and 7), generalize full and ablated on the README
    task, evaluate, and benchmark's 4 cells at 40 trials, seed 11."""
    golden = golden_digests()
    got = output_digests(tmp_path)
    capsys.readouterr()
    assert got == golden["digests"]


def test_adapt_queries_match_golden_digests(model, scene):
    """The adapt pool's queries on the session's source model (synth and
    fit seed 0), full and ablated."""
    assert query_digests(model, scene) == golden_digests()["query_digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = output_digests(Path(work))
    scene, config = default_scene(), SynthConfig(seed=0)
    source = fit_gmm(generate_demonstrations(scene, config)[0], FitConfig(seed=0),
                     phases=config.phases()).model
    queries = query_digests(source, scene)
    DIGESTS.write_text(json.dumps({"versions": versions(), "digests": digests,
                                   "query_digests": queries}, indent=2) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(digests) + len(queries)} digests to {DIGESTS}", file=sys.stderr)
