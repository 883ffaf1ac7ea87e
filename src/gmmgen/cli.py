"""Command-line pipeline: synth, fit, generalize, regress, evaluate, benchmark, plot.

Exit codes: 0 on success, 2 for invalid inputs or paths, 1 for unexpected
internal failures.  A JSON config file can pre-set any subcommand flag;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
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
    sub.add_argument("--max-boundary-pos", type=float, help="boundary position threshold, mm",
                     default=SuccessThresholds.max_boundary_pos_mm)
    sub.add_argument("--max-boundary-rot", type=float, help="boundary rotation threshold, deg",
                     default=SuccessThresholds.max_boundary_rot_deg)
    sub.add_argument("--collision-samples", type=int, default=SuccessThresholds.collision_samples,
                     help="poses sampled along the trajectory for collision checks")


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
    names = []
    for j, demo in enumerate(demos):
        name = f"demo_{j:02d}.csv"
        save_trajectory(demo, out_dir / name)
        names.append(name)
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
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(names)} demonstrations to {out_dir}")
    return EXIT_OK


def _demo_paths(args):
    paths = [Path(p) for p in args.demos]
    phases = None
    if len(paths) == 1 and paths[0].suffix == ".json":
        manifest_path = paths[0]
        manifest = _read_json(manifest_path)
        try:
            paths = [manifest_path.parent / f for f in manifest["files"]]
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
    save_model(adapted, args.out_model)
    if args.out_traj:
        save_trajectory(regress(adapted, times), args.out_traj)
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
    bench.write_summary_csv([result.summary], out_dir / "summary.csv")
    bench.write_trials_jsonl(result, out_dir / "trials.jsonl")
    print(f"{result.method} {result.mode}: success {result.summary['success_rate']:.1f}% "
          f"over {args.trials} trials; results in {out_dir}")
    return EXIT_OK


def cmd_plot(args) -> int:
    trajectories = [load_trajectory(p) for p in args.traj]
    scene = load_scene(args.scene) if args.scene else None
    plot.save_svg(trajectories, args.out, scene)
    if args.out_csv:
        save_trajectory(trajectories[0], args.out_csv)
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
    s.add_argument("--out-dir", required=True)
    s.add_argument("--scene", default=None, help="scene JSON (default: built-in shelf)")
    s.add_argument("--demos", type=int, default=SynthConfig.n_demos)
    s.add_argument("--lift", type=float, default=SynthConfig.lift_height,
                   help="transport arc lift, m")
    s.add_argument("--noise-pos-mm", type=float, default=SynthConfig.noise_pos * 1000.0)
    s.add_argument("--noise-rot-deg", type=float,
                   default=float(np.rad2deg(SynthConfig.noise_rot)))
    s.add_argument("--rate", type=float, default=SynthConfig.sample_rate)
    s.add_argument("--seed", type=int, default=SynthConfig.seed)

    s = sub("fit", cmd_fit, help="fit a mixture model to demonstrations")
    s.add_argument("--demos", nargs="+", required=True,
                   help="demo CSVs, or a single synth manifest JSON")
    s.add_argument("--components", type=int, default=FitConfig.n_components)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=FitConfig.seed)
    s.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    s.add_argument("--tol", type=float, default=FitConfig.loglik_tol)
    s.add_argument("--cov-floor", type=float, default=FitConfig.cov_floor)
    s.add_argument("--grasp-end", type=float, default=None)
    s.add_argument("--release-start", type=float, default=None)

    s = sub("generalize", cmd_generalize, help="adapt a model to new start/goal poses")
    s.add_argument("--model", required=True)
    s.add_argument("--start", required=True, help="px,py,pz,rx,ry,rz")
    s.add_argument("--goal", required=True, help="px,py,pz,rx,ry,rz")
    s.add_argument("--ablate-covariance", action="store_true",
                   help="keep source covariances; remap means only")
    s.add_argument("--out-model", required=True)
    s.add_argument("--out-traj", default=None)
    s.add_argument("--rate", type=float, default=SAMPLE_RATE)

    s = sub("regress", cmd_regress, help="regress a trajectory from a model")
    s.add_argument("--model", required=True, help="fitted or generalized model JSON")
    s.add_argument("--out", required=True)
    s.add_argument("--rate", type=float, default=SAMPLE_RATE)

    s = sub("evaluate", cmd_evaluate, help="score a trajectory against a task")
    s.add_argument("--traj", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--start", required=True)
    s.add_argument("--goal", required=True)
    s.add_argument("--scene", default=None)
    s.add_argument("--ref", default=None, help="reference CSV for shape deviation")
    s.add_argument("--out", default=None)
    s.add_argument("--rate", type=float, default=SAMPLE_RATE)
    _add_threshold_flags(s)

    s = sub("benchmark", cmd_benchmark, help="run randomized generalization trials")
    s.add_argument("--model", required=True)
    s.add_argument("--scene", default=None)
    s.add_argument("--mode", choices=("translational", "combined"),
                   default="translational")
    s.add_argument("--trials", type=int, default=50)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--ablate-covariance", action="store_true")
    s.add_argument("--method", default=None, help="label for the summary row")
    s.add_argument("--ref", default=None)
    s.add_argument("--rate", type=float, default=SAMPLE_RATE)
    _add_threshold_flags(s)

    s = sub("plot", cmd_plot, help="render trajectories (and scene) to SVG")
    s.add_argument("--traj", nargs="+", required=True)
    s.add_argument("--scene", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--out-csv", default=None,
                   help="also export the first trajectory's plotted data")

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
    if "--config" not in argv:
        return
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
    if path is None or not argv or argv[0] not in registry:
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        _apply_config_defaults(argv, registry)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
