"""Which gmmgen functions the traced run wraps, and the per-layer metrics
derived from the wrappers.

A layer is one module of the package.  Every public function of each
layer is wrapped; `plot` is left out because no workload plots.
"""

from __future__ import annotations

import importlib
import os

from tracing import Tracer, public_functions

LAYERS = ("data", "model", "reparam", "gmr", "metrics", "scene", "synth", "bench", "cli")

# Called hundreds of times per trial: aggregated, no span per call.
COUNTED = ("scene.box_collides", "scene.scene_collides", "scene.rest_height",
           "model.blocks", "metrics.rotation_angle_deg")

# Calls of the key made under one of the listed callers are counted per caller.
WATCHED = {
    "scene.scene_collides": ("scene.trajectory_success", "scene.sample_task"),
    "scene.trajectory_success": ("synth.generate_demonstrations",),
}

COLLISION_SAMPLES = 200  # SuccessThresholds().collision_samples, used by every workload


def _em_iterations(tracer, args, kwargs, result):
    tracer.count("model.em_iterations", len(result[1]))


def _spd_repairs(tracer, args, kwargs, result):
    tracer.count("reparam.spd_repairs", int(result.spd_repairs))


def _bytes_written(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("data.bytes_written", os.path.getsize(path))


def _demos(tracer, args, kwargs, result):
    tracer.count("synth.demos", len(result[0]))


HOOKS = {
    "model.em_fit": _em_iterations,
    "reparam.generalize": _spd_repairs,
    "data.save_trajectory": _bytes_written,
    "synth.generate_demonstrations": _demos,
}


def targets() -> dict:
    """Span name -> function for every public function of every layer.

    CLI handlers are named after their subcommand (cli.cmd_fit -> cli.fit).
    """
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"gmmgen.{layer}")
        for name, fn in public_functions(module, layer).items():
            out[name.replace("cli.cmd_", "cli.")] = fn
    return out


def make_tracer() -> Tracer:
    return Tracer(counted=COUNTED, watched=WATCHED, hooks=HOOKS)


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


# (metric, unit); "<name>.calls" and "<name>.self_s" read the wrapper
# aggregates, the rest are derived in layer_metrics().
PER_LAYER = (
    ("scene.box_collides.calls", "count"),
    ("scene.box_collides.self_s", "s"),
    ("scene.scene_collides.calls", "count"),
    ("scene.scene_collides.self_s", "s"),
    ("scene.trajectory_success.calls", "count"),
    ("scene.trajectory_success.self_s", "s"),
    ("scene.poses_checked_ratio", "ratio"),
    ("scene.sample_task.calls", "count"),
    ("scene.sample_task.self_s", "s"),
    ("scene.sample_task.draws_per_endpoint", "ratio"),
    ("metrics.shape_deviation.self_s", "s"),
    ("metrics.boundary_error.self_s", "s"),
    ("metrics.phase_deviation.self_s", "s"),
    ("metrics.average_jerk.self_s", "s"),
    ("reparam.generalize.calls", "count"),
    ("reparam.generalize.self_s", "s"),
    ("reparam.reparam_means.self_s", "s"),
    ("reparam.reparam_covariances.self_s", "s"),
    ("reparam.source_decomposition.self_s", "s"),
    ("reparam.spd_repairs", "count"),
    ("gmr.regress.calls", "count"),
    ("gmr.regress.self_s", "s"),
    ("model.kmeans_init.self_s", "s"),
    ("model.em_fit.self_s", "s"),
    ("model.em_iterations", "count"),
    ("model.em_s_per_iter", "s"),
    ("synth.generate_demonstrations.self_s", "s"),
    ("synth.attempts_per_demo", "ratio"),
    ("data.resample.calls", "count"),
    ("data.resample.self_s", "s"),
    ("data.save_trajectory.self_s", "s"),
    ("data.load_trajectory.self_s", "s"),
    ("data.bytes_written", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.synth.self_s", "s"),
    ("cli.fit.self_s", "s"),
    ("cli.generalize.self_s", "s"),
    ("cli.evaluate.self_s", "s"),
    ("bench.run_benchmark.self_s", "s"),
    ("bench.evaluate_trajectory.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer: Tracer, overhead_ratio: float, roots=None) -> dict:
    """Every PER_LAYER metric over the given root spans (default: all)."""
    totals = tracer.totals(roots)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def counter(key):
        return tracer.counter(key, roots)

    em_total = totals.get("model.em_fit", (0, 0.0, 0.0))[1]
    derived = {
        "scene.poses_checked_ratio": _ratio(
            counter("scene.trajectory_success>scene.scene_collides"),
            calls("scene.trajectory_success") * COLLISION_SAMPLES),
        "scene.sample_task.draws_per_endpoint": _ratio(
            counter("scene.sample_task>scene.scene_collides"),
            2 * calls("scene.sample_task")),
        "reparam.spd_repairs": counter("reparam.spd_repairs"),
        "model.em_iterations": counter("model.em_iterations"),
        "model.em_s_per_iter": _ratio(em_total, counter("model.em_iterations")),
        "synth.attempts_per_demo": _ratio(
            counter("synth.generate_demonstrations>scene.trajectory_success"),
            counter("synth.demos")),
        "data.bytes_written": counter("data.bytes_written"),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".calls"):
            value = calls(metric[:-len(".calls")])
        else:
            value = totals.get(metric[:-len(".self_s")], (0, 0.0, 0.0))[2]
        out[metric] = {"value": value, "unit": unit}
    return out
