"""Command-line pipeline: synth, fit, generalize, regress, evaluate, benchmark, plot.

Exit codes: 0 on success, 2 for invalid inputs or paths, 1 for unexpected
internal failures.  A JSON config file can pre-set any subcommand flag;
explicit flags win.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import bench, plot
from .data import (SAMPLE_RATE, PhaseSchedule, Pose, TaskSpec, _json_numbers, _read_json,
                   _write_json, load_trajectory, save_trajectory)
from .gmr import regress
from .model import FitConfig, fit_gmm, load_model, save_model
from .reparam import ReparamConfig, generalize
from .scene import SuccessThresholds, default_scene, load_scene, scene_to_dict
from .synth import SynthConfig, generate_demonstrations

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _parse_pose(text: str) -> Pose:
    try:
        return Pose.from_vector([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"pose '{text}': {exc}") from None


def _load_scene_arg(path):
    return load_scene(path) if path else default_scene()


def _thresholds(args) -> SuccessThresholds:
    return SuccessThresholds(args.max_boundary_pos, args.max_boundary_rot,
                             args.collision_samples)


def _add_threshold_flags(sub):
    sub.add_argument("--max-boundary-pos", type=float,
                     help="boundary position threshold, mm (default: %(default)g)",
                     default=SuccessThresholds.max_boundary_pos_mm)
    sub.add_argument("--max-boundary-rot", type=float,
                     help="boundary rotation threshold, deg (default: %(default)g)",
                     default=SuccessThresholds.max_boundary_rot_deg)
    sub.add_argument("--collision-samples", type=int, default=SuccessThresholds.collision_samples,
                     help="poses sampled along the trajectory for collision checks "
                          "(default: %(default)s)")


def _save_all_or_nothing(saves) -> None:
    """Run each (save, obj, path) as save(obj, temporary file beside path),
    then move the files into place only once every save succeeded, so a
    failed save leaves none of them behind.  Two paths that resolve to one
    file, and a path that is a directory, are refused before anything is
    saved: the second move would replace the first output, and a move onto
    a directory would fail only after the files before it had been moved."""
    temps = [Path(path).with_name(f".{Path(path).name}.{os.getpid()}.{i}.tmp")
             for i, (_, _, path) in enumerate(saves)]
    resolved = [Path(path).resolve() for _, _, path in saves]
    for i, (_, _, path) in enumerate(saves):
        first = resolved.index(resolved[i])
        if first < i:
            raise ValueError(f"outputs {saves[first][2]} and {path} are the same file")
    for _, _, path in saves:
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    try:
        for (save, obj, path), temp in zip(saves, temps):
            try:
                save(obj, temp)
            except OSError as exc:  # name the output, not its temporary file
                raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        for (_, _, path), temp in zip(saves, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def cmd_synth(args) -> int:
    scene = _load_scene_arg(args.scene)
    cfg = SynthConfig(
        n_demos=args.demos,
        lift_height=args.lift,
        noise_pos=args.noise_pos_mm / 1000.0,
        noise_rot=np.deg2rad(args.noise_rot_deg),
        sample_rate=args.rate,
        seed=args.seed,
    )
    demos, task = generate_demonstrations(scene, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"demo_{j:02d}.csv" for j in range(len(demos))]
    phases = cfg.phases()
    manifest = {
        "files": names,
        "seed": args.seed,
        "phases": {"grasp_end": phases.grasp_end,
                   "release_start": phases.release_start,
                   "duration": phases.duration},
        "task": task.to_dict(),
        "config": {"demos": args.demos, "lift": cfg.lift_height,
                   "noise_pos_mm": args.noise_pos_mm,
                   "noise_rot_deg": args.noise_rot_deg, "rate": cfg.sample_rate},
        "scene": scene_to_dict(scene),
    }
    _save_all_or_nothing([*((save_trajectory, demo, out_dir / name)
                            for demo, name in zip(demos, names)),
                          (lambda obj, path: _write_json(path, obj), manifest,
                           out_dir / "manifest.json")])
    print(f"wrote {len(names)} demonstrations to {out_dir}")
    return EXIT_OK


def _demo_paths(args):
    paths = [Path(p) for p in args.demos]
    phases = None
    if len(paths) == 1 and paths[0].suffix == ".json":
        manifest_path = paths[0]
        manifest = _read_json(manifest_path)
        try:
            files = manifest["files"]
            if not (isinstance(files, list) and files and all(isinstance(f, str) for f in files)):
                raise ValueError(f"\"files\" must be a non-empty list of strings, got {files!r}")
            paths = [manifest_path.parent / f for f in files]
            if "phases" in manifest:
                phases = PhaseSchedule(*(_json_numbers(key, manifest["phases"][key])
                                         for key in ("grasp_end", "release_start", "duration")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{manifest_path}: invalid manifest: {exc}") from exc
    return paths, phases


def cmd_fit(args) -> int:
    if (args.grasp_end is None) != (args.release_start is None):
        raise ValueError("--grasp-end and --release-start must be given together")
    paths, phases = _demo_paths(args)
    demos = [load_trajectory(p) for p in paths]
    if args.grasp_end is not None:
        phases = PhaseSchedule(args.grasp_end, args.release_start, demos[0].duration)
    config = FitConfig(n_components=args.components, max_iters=args.max_iters,
                       loglik_tol=args.tol, cov_floor=args.cov_floor,
                       seed=args.seed)
    result = fit_gmm(demos, config, phases)
    save_model(result.model, args.out)
    print(f"fit {result.model.n_components} components on {len(demos)} demos; "
          f"loglik {result.loglik_trace[-1]:.3f} after {len(result.loglik_trace)} iters")
    return EXIT_OK


def cmd_generalize(args) -> int:
    model = load_model(args.model)
    task = TaskSpec(_parse_pose(args.start), _parse_pose(args.goal))
    config = ReparamConfig(ablate_covariance=args.ablate_covariance)
    times = bench.default_times(model.duration, args.rate)
    adapted = generalize(model, task, config)
    saves = [(save_model, adapted, args.out_model)]
    if args.out_traj:
        saves.append((save_trajectory, regress(adapted, times), args.out_traj))
    _save_all_or_nothing(saves)
    print(f"generalized model written to {args.out_model}")
    return EXIT_OK


def cmd_regress(args) -> int:
    model = load_model(args.model)
    times = bench.default_times(model.duration, args.rate)
    save_trajectory(regress(model, times), args.out)
    print(f"regressed {len(times)} samples to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    traj = load_trajectory(args.traj)
    scene = _load_scene_arg(args.scene)
    task = TaskSpec(_parse_pose(args.start), _parse_pose(args.goal))
    if args.ref:
        reference = load_trajectory(args.ref)
    else:
        reference = regress(model, bench.default_times(model.duration, args.rate))
    report = bench.evaluate_trajectory(traj, task, scene, reference, model.phases,
                                       _thresholds(args))
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    model = load_model(args.model)
    scene = _load_scene_arg(args.scene)
    config = ReparamConfig(ablate_covariance=args.ablate_covariance)
    reference = load_trajectory(args.ref) if args.ref else None
    result = bench.run_benchmark(model, scene, args.mode, args.trials, args.seed,
                                 config, _thresholds(args), reference,
                                 method=args.method, rate=args.rate)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_all_or_nothing([(bench.write_summary_csv, result.summary, out_dir / "summary.csv"),
                          (bench.write_trials_jsonl, result, out_dir / "trials.jsonl")])
    print(f"{result.method} {result.mode}: success {result.summary['success_rate']:.1f}% "
          f"over {args.trials} trials; results in {out_dir}")
    return EXIT_OK


def cmd_plot(args) -> int:
    trajectories = [load_trajectory(p) for p in args.traj]
    scene = load_scene(args.scene) if args.scene else None
    plot.save_svg(trajectories, args.out, scene)
    print(f"plot written to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmmgen",
        description="Learn, generalize, and evaluate demonstration trajectories.")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def sub(name, func, **kwargs):
        s = subs.add_parser(name, **kwargs)
        s.add_argument("--config", default=None,
                       help="JSON file with default values for this subcommand's flags")
        s.set_defaults(func=func)
        registry[name] = s
        return s

    s = sub("synth", cmd_synth, help="generate synthetic demonstrations")
    s.add_argument("--out-dir", required=True,
                   help="directory for the demo CSVs and manifest.json, made if missing")
    s.add_argument("--scene", default=None, help="scene JSON (default: built-in shelf)")
    s.add_argument("--demos", type=int, default=SynthConfig.n_demos,
                   help="number of demonstrations (default: %(default)s)")
    s.add_argument("--lift", type=float, default=SynthConfig.lift_height,
                   help="transport arc lift, m (default: %(default)g)")
    s.add_argument("--noise-pos-mm", type=float, default=SynthConfig.noise_pos * 1000.0,
                   help="position noise standard deviation, mm (default: %(default)g)")
    s.add_argument("--noise-rot-deg", type=float,
                   default=float(np.rad2deg(SynthConfig.noise_rot)),
                   help="rotation noise standard deviation, deg (default: %(default)g)")
    s.add_argument("--rate", type=float, default=SynthConfig.sample_rate,
                   help="sample rate, Hz (default: %(default)g)")
    s.add_argument("--seed", type=int, default=SynthConfig.seed,
                   help="random seed (default: %(default)s)")

    s = sub("fit", cmd_fit, help="fit a mixture model to demonstrations")
    s.add_argument("--demos", nargs="+", required=True,
                   help="demo CSVs, or a single synth manifest JSON")
    s.add_argument("--components", type=int, default=FitConfig.n_components,
                   help="mixture components (default: %(default)s)")
    s.add_argument("--out", required=True, help="model JSON to write")
    s.add_argument("--seed", type=int, default=FitConfig.seed,
                   help="k-means seed (default: %(default)s)")
    s.add_argument("--max-iters", type=int, default=FitConfig.max_iters,
                   help="EM iteration cap (default: %(default)s)")
    s.add_argument("--tol", type=float, default=FitConfig.loglik_tol,
                   help="EM stops once the log-likelihood gains less than this fraction "
                        "of its magnitude (default: %(default)g)")
    s.add_argument("--cov-floor", type=float, default=FitConfig.cov_floor,
                   help="added to every covariance's diagonal (default: %(default)g)")
    s.add_argument("--grasp-end", type=float, default=None,
                   help="grasp phase end, s; with --release-start it replaces the "
                        "manifest's phases")
    s.add_argument("--release-start", type=float, default=None,
                   help="release phase start, s; given with --grasp-end")

    s = sub("generalize", cmd_generalize, help="adapt a model to new start/goal poses")
    s.add_argument("--model", required=True, help="source model JSON")
    s.add_argument("--start", required=True, help="px,py,pz,rx,ry,rz")
    s.add_argument("--goal", required=True, help="px,py,pz,rx,ry,rz")
    s.add_argument("--ablate-covariance", action="store_true",
                   help="keep source covariances; remap means only")
    s.add_argument("--out-model", required=True, help="generalized model JSON to write")
    s.add_argument("--out-traj", default=None,
                   help="also write the generalized model's regression to this CSV")
    s.add_argument("--rate", type=float, default=SAMPLE_RATE,
                   help="--out-traj sample rate, Hz (default: %(default)g)")

    s = sub("regress", cmd_regress, help="regress a trajectory from a model")
    s.add_argument("--model", required=True, help="fitted or generalized model JSON")
    s.add_argument("--out", required=True, help="trajectory CSV to write")
    s.add_argument("--rate", type=float, default=SAMPLE_RATE,
                   help="sample rate, Hz (default: %(default)g)")

    s = sub("evaluate", cmd_evaluate, help="score a trajectory against a task")
    s.add_argument("--traj", required=True, help="trajectory CSV to score")
    s.add_argument("--model", required=True,
                   help="model JSON whose phases, and without --ref whose regression, "
                        "the scores use")
    s.add_argument("--start", required=True, help="task start pose px,py,pz,rx,ry,rz")
    s.add_argument("--goal", required=True, help="task goal pose px,py,pz,rx,ry,rz")
    s.add_argument("--scene", default=None, help="scene JSON (default: built-in shelf)")
    s.add_argument("--ref", default=None, help="reference CSV for shape deviation")
    s.add_argument("--out", default=None, help="report JSON to write (default: stdout)")
    s.add_argument("--rate", type=float, default=SAMPLE_RATE,
                   help="sample rate of the model's regression used without --ref, Hz "
                        "(default: %(default)g)")
    _add_threshold_flags(s)

    s = sub("benchmark", cmd_benchmark, help="run randomized generalization trials")
    s.add_argument("--model", required=True, help="source model JSON")
    s.add_argument("--scene", default=None, help="scene JSON (default: built-in shelf)")
    s.add_argument("--mode", choices=("translational", "combined"),
                   default="translational",
                   help="task variation: translational keeps the base orientations, "
                        "combined also turns them (default: %(default)s)")
    s.add_argument("--trials", type=int, default=50,
                   help="number of trials (default: %(default)s)")
    s.add_argument("--seed", type=int, default=0,
                   help="task sampling seed (default: %(default)s)")
    s.add_argument("--out-dir", required=True,
                   help="directory for summary.csv and trials.jsonl, made if missing")
    s.add_argument("--ablate-covariance", action="store_true",
                   help="keep source covariances; remap means only")
    s.add_argument("--method", default=None, help="label for the summary row")
    s.add_argument("--ref", default=None,
                   help="reference CSV for shape deviation (default: the model's regression)")
    s.add_argument("--rate", type=float, default=SAMPLE_RATE,
                   help="trajectory sample rate, Hz (default: %(default)g)")
    _add_threshold_flags(s)

    s = sub("plot", cmd_plot, help="render trajectories (and scene) to SVG")
    s.add_argument("--traj", nargs="+", required=True, help="trajectory CSVs to draw")
    s.add_argument("--scene", default=None, help="scene JSON to draw behind them (default: none)")
    s.add_argument("--out", required=True, help="SVG file to write")

    return parser, registry


# JSON types a --config value may take, by the argparse type of its flag.
_CONFIG_KINDS = {None: ((str,), "a string"), int: ((int,), "an integer"),
                 float: ((int, float), "a number")}


def _config_value(action, value):
    """A --config value as its flag would hold it; ValueError unless the
    command line accepts that value for the flag."""
    if action.nargs == 0:  # a switch
        if not isinstance(value, bool):
            raise ValueError("must be true or false")
        return value
    many = action.nargs == "+"
    if many and not (isinstance(value, list) and value):
        raise ValueError("must be a non-empty list")
    kinds, name = _CONFIG_KINDS[action.type]
    items = value if many else [value]
    if any(isinstance(v, bool) or not isinstance(v, kinds) for v in items):
        raise ValueError(f"must be {name}" + (" in every entry" if many else ""))
    if action.type is not None:  # parsed from the text the command line would carry
        items = [action.type(str(v)) for v in items]
    if action.choices is not None and not set(items) <= set(action.choices):
        raise ValueError(f"must be one of {', '.join(action.choices)}")
    return items if many else items[0]


def _apply_config_defaults(argv, registry) -> None:
    """Pre-set the subcommand's defaults from its --config file, found as
    argparse finds it: --config FILE, --config=FILE or an abbreviation."""
    if not argv or argv[0] not in registry:
        return
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:  # a --config without a path: the full parse reports it
        return
    if path is None:
        return
    values = _read_json(path)
    if not isinstance(values, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    sub = registry[argv[0]]
    actions = {action.dest: action for action in sub._actions}
    defaults = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"{path}: unknown config key '{key}' for '{argv[0]}'")
        try:
            defaults[dest] = _config_value(actions[dest], value)
        except ValueError as exc:
            raise ValueError(f"{path}: config key '{key}' for '{argv[0]}' {exc}") from None
    sub.set_defaults(**defaults)


def _attach_negative_values(argv):
    """Write "--flag -0.38,0.25,..." as "--flag=-0.38,0.25,...".

    argparse reads a token that starts with "-" as an option unless it is
    one plain negative number, so a pose whose first number is negative
    would be rejected as an unknown option.  No gmmgen flag starts with a
    digit or ".", so such a token after a long flag is always its value.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (re.match(r"-\.?\d", token) and prev.startswith("--") and prev != "--"
                and "=" not in prev):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _apply_config_defaults(argv, registry)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
