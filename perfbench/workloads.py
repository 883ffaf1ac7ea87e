"""The benchmark's workloads: trials, adapt and pipeline.

Each workload builds its inputs from the run seed in `setup`, times its
operations in `measure`, and offers a fixed operation list for the traced
run (`trace_ops`).  gmmgen is driven only through its public functions,
looked up on the module at call time so the traced run's wrappers see
every call.  Why each workload exists is in README.md next to this file.

The source model (demonstration corpus and fit) uses one fixed seed in
every run: EM's iteration count depends on the corpus (24 to 72
iterations over corpus seeds 0-5), which would swamp any speed change.
The run seed varies the tasks.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

import probe
import stats
from gmmgen import bench, cli, gmr, reparam, synth
from gmmgen import model as gmodel
from gmmgen import scene as gscene

SOURCE_SEED = 0
FAILURE_REASONS = ("none", "collision", "boundary", "invalid")


def derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def build_source():
    """The paper's source model: default shelf, five demonstrations, 15 components."""
    shelf = gscene.default_scene()
    config = synth.SynthConfig(seed=SOURCE_SEED)
    demos, _ = synth.generate_demonstrations(shelf, config)
    fitted = gmodel.fit_gmm(demos, gmodel.FitConfig(seed=SOURCE_SEED),
                            phases=config.phases()).model
    return shelf, fitted


def model_fingerprint(model) -> str:
    return json.dumps(gmodel.model_to_dict(model), sort_keys=True)


@dataclass
class Op:
    """One timed operation and what its output check found."""

    kind: str
    start: float  # time.perf_counter() interval
    end: float
    output: object = None
    problems: list = field(default_factory=list)
    units: int = 1  # operations it stands for (trials in a benchmark call)
    raw: float = 0.0   # seconds less time spent sampling host speed (measure() sets it)
    norm: float = 0.0  # raw at the probe's reference speed (see probe.py)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def seconds(self) -> float:
        return self.end - self.start


def timed(kind: str, fn, units: int = 1, tracer=None) -> Op:
    """Run fn once, timing it; an exception becomes a failed operation."""
    start = time.perf_counter()
    output, problems = None, []
    try:
        if tracer is None:
            output = fn()
        else:
            with tracer.span(f"op.{kind}"):
                output = fn()
    except Exception:  # the benchmark must report the failure and go on
        traceback.print_exc()
        problems = ["raised"]
    return Op(kind, start, time.perf_counter(), output, problems, units)


def named(raw, norm, unit) -> dict:
    """A figure under its workload-specific name (README.md), raw and normalized."""
    return {"value": raw, "normalized": norm, "unit": unit}


def run_until(seconds: float, step) -> int:
    """Call step(i) until another step would likely overrun `seconds`.

    At least one step runs; returns the number of steps.
    """
    start = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds:
            return i


# -- trials ------------------------------------------------------------------

# Trials per second of --seconds, so a run's trial counts, and with them its
# tasks, depend only on the seed and --seconds, never on how fast the code
# runs.  At 20 s: 16 full and 32 ablated trials, about 21 s of work at the
# probe's reference speed.  The ablated method gets twice the trials
# because its per-trial cost varies about twice as much over tasks
# (coefficient of variation 0.47 vs 0.26 over 130 tasks: an ablated trial
# either collides early or checks all 200 poses).
TRIALS_PER_SECOND = {"full": 0.8, "ablated": 1.6}
TRACE_TRIALS = {"full": 4, "ablated": 12}
SUCCESS_BOUND = 70.0  # tests/test_acceptance.py, combined full-method bound
BOUND_ALPHA = 0.01


def trial_counts(seconds: float) -> dict:
    return {kind: max(1, int(rate * seconds)) for kind, rate in TRIALS_PER_SECOND.items()}


def check_trial(record, shelf, thresholds) -> list:
    """Problems with one trial record; an empty list means it passed."""
    problems = []
    rep = record.report
    reason = rep.failure_reason.value
    if rep.success != (reason == "none"):
        problems.append("success flag disagrees with failure reason")
    worst_mm = max(rep.start_error_mm, rep.goal_error_mm)
    worst_deg = max(rep.start_error_deg, rep.goal_error_deg)
    within = (worst_mm <= thresholds.max_boundary_pos_mm
              and worst_deg <= thresholds.max_boundary_rot_deg)
    if rep.success and not within:
        problems.append(f"success with boundary error {worst_mm:.3f} mm / {worst_deg:.3f} deg")
    if reason == "boundary" and within:
        problems.append("boundary failure with in-bound errors")
    if reason == "invalid":
        problems.append("trajectory reported invalid")
    rest = [gscene.rest_height(shelf, level) for level in shelf.levels]
    lo, hi = shelf.length_range
    for pose in (record.task.start, record.task.goal):
        x, _, z = pose.position
        if not lo <= x <= hi:
            problems.append(f"task length {x} outside {shelf.length_range}")
        if min(abs(z - r) for r in rest) > 1e-12:
            problems.append(f"task height {z} is not a rest height")
    return problems


def check_benchmark(result, shelf, thresholds, trials: int) -> list:
    problems = []
    if len(result.trials) != trials:
        problems.append(f"{len(result.trials)} trial records for {trials} trials")
    successes = sum(r.report.success for r in result.trials)
    if abs(result.summary["success_rate"] - 100.0 * successes / max(trials, 1)) > 1e-9:
        problems.append("summary success rate disagrees with the records")
    for record in result.trials:
        problems += [f"trial {record.index}: {p}" for p in check_trial(record, shelf, thresholds)]
    return problems


def check_success_rates(full: Counter, ablated: Counter) -> list:
    """Batch checks over a run's trials.

    The full method must not be significantly below the acceptance bound
    (one-sided binomial test at BOUND_ALPHA; a run's 16 full trials are
    too few to hold to 70% exactly: it fails at 6 successes or fewer),
    and the ablated method must succeed less often than the full one.
    Over 130 tasks the full method succeeded on 82%; at that rate a run
    fails this check with probability 0.0001.  A change that drops full
    success to 50% fails 23% of runs, and one of ten seeds with
    probability 0.92; a drop to 60% fails 6% of runs, and one of ten
    with probability 0.45.
    """
    problems = []
    n_full, n_abl = sum(full.values()), sum(ablated.values())
    k_full = full["none"]
    if n_full and stats.binomial_cdf(k_full, n_full, SUCCESS_BOUND / 100.0) < BOUND_ALPHA:
        problems.append(f"full-method success {k_full}/{n_full} is significantly "
                        f"below {SUCCESS_BOUND:.0f}%")
    if n_full and n_abl and ablated["none"] / n_abl >= k_full / n_full:
        problems.append(f"ablated success {ablated['none']}/{n_abl} is not below "
                        f"full success {k_full}/{n_full}")
    return problems


def trial_dicts(result) -> list:
    return [json.dumps(bench.trial_to_dict(result, rec), sort_keys=True)
            for rec in result.trials]


@dataclass
class TrialsFixture:
    shelf: object
    model: object
    seed: int
    thresholds: object

    def fingerprint(self) -> str:
        return model_fingerprint(self.model)


class Trials:
    """bench.run_benchmark in combined mode, full method and covariance ablation."""

    def setup(self, seed: int) -> TrialsFixture:
        shelf, fitted = build_source()
        return TrialsFixture(shelf, fitted, seed, gscene.SuccessThresholds())

    def _run(self, fix, counts, tracer=None) -> list:
        """One run_benchmark call per method on the run seed: trial i of
        both methods gets the same task."""
        ops = []
        for kind, config in (("full", None),
                             ("ablated", reparam.ReparamConfig(ablate_covariance=True))):
            n = counts[kind]
            op = timed(kind, lambda: bench.run_benchmark(
                fix.model, fix.shelf, "combined", n, fix.seed, config=config), n, tracer)
            if op.ok:
                op.problems += check_benchmark(op.output, fix.shelf, fix.thresholds, n)
            ops.append(op)
        return ops

    def measure(self, fix, seconds: float) -> list:
        with probe.Sampler() as sampler:
            ops = self._run(fix, trial_counts(seconds))
        for op in ops:
            op.raw, op.norm = sampler.adjust(op.start, op.end)
        return ops

    def trace_ops(self, fix, tracer=None) -> list:
        return self._run(fix, TRACE_TRIALS, tracer)

    def same_output(self, a: Op, b: Op) -> bool:
        return trial_dicts(a.output) == trial_dicts(b.output)

    def mix(self, ops) -> dict:
        out = {kind: Counter() for kind in ("full", "ablated")}
        for op in ops:
            if op.output is not None:
                out[op.kind].update(r.report.failure_reason.value for r in op.output.trials)
        return out

    def batch_problems(self, ops) -> list:
        mix = self.mix(ops)
        return check_success_rates(mix["full"], mix["ablated"])

    def figures(self, ops) -> dict:
        def per_trial_ms(kind, attr):
            sel = [op for op in ops if op.kind == kind]
            return 1000.0 * sum(getattr(op, attr) for op in sel) / sum(op.units for op in sel)

        def rate(kind):
            return named(1000.0 / per_trial_ms(kind, "raw"),
                         1000.0 / per_trial_ms(kind, "norm"), "1/s")

        mix = self.mix(ops)
        full_ms, ablated_ms = per_trial_ms("full", "norm"), per_trial_ms("ablated", "norm")
        return {
            # op_ms weighs the methods 1:1, as the paper's experiment does
            "slots": {"op_ms": (full_ms + ablated_ms) / 2.0, "a_ms": full_ms,
                      "b_ms": ablated_ms},
            "named": {"full_trials_per_s": rate("full"),
                      "ablated_trials_per_s": rate("ablated")},
            "info": {
                "trials": {k: sum(op.units for op in ops if op.kind == k)
                           for k in ("full", "ablated")},
                "outcome_mix": {k: {r: v[r] for r in FAILURE_REASONS} for k, v in mix.items()},
            },
        }


# -- adapt ---------------------------------------------------------------------

TASK_POOL = 32
RATE_HZ = 100.0
TRACE_QUERIES = 400
MODES = ("translational", "combined")


def boundary_problems(traj, task, thresholds) -> list:
    """Boundary check computed here, independently of gmmgen.metrics."""
    problems = []
    for label, row, target in (("start", traj.values[0], task.start),
                               ("goal", traj.values[-1], task.goal)):
        mm = 1000.0 * float(np.linalg.norm(row[:3] - target.position))
        rel = Rotation.from_rotvec(np.array(target.orientation)).inv() \
            * Rotation.from_rotvec(np.array(row[3:6]))
        deg = float(np.degrees(rel.magnitude()))
        if not (mm <= thresholds.max_boundary_pos_mm and deg <= thresholds.max_boundary_rot_deg):
            problems.append(f"{label} off by {mm:.3f} mm / {deg:.3f} deg")
    return problems


@dataclass
class AdaptFixture:
    model: object
    times: np.ndarray
    tasks: list
    thresholds: object

    def fingerprint(self) -> str:
        tasks = [np.concatenate([t.start_vector(), t.goal_vector()]).tolist() for t in self.tasks]
        return model_fingerprint(self.model) + json.dumps(tasks)


class Adapt:
    """A 100 Hz closed loop of reparam.generalize then gmr.regress."""

    def setup(self, seed: int) -> AdaptFixture:
        shelf, fitted = build_source()
        base_start, base_goal = bench.model_endpoints(fitted)
        rng = np.random.default_rng([seed])
        tasks = [gscene.sample_task(shelf, MODES[i % 2], rng, base_start, base_goal)
                 for i in range(TASK_POOL)]
        return AdaptFixture(fitted, bench.default_times(fitted.duration), tasks,
                            gscene.SuccessThresholds())

    def _query(self, fix, i, tracer=None, keep=True) -> Op:
        task = fix.tasks[i % len(fix.tasks)]
        op = timed("query", lambda: gmr.regress(reparam.generalize(fix.model, task), fix.times),
                   tracer=tracer)
        if op.ok:
            if op.output.n_samples != len(fix.times):
                op.problems.append(f"{op.output.n_samples} samples, expected {len(fix.times)}")
            op.problems += boundary_problems(op.output, task, fix.thresholds)
        if not keep:
            op.output = None  # thousands of trajectories would inflate peak RSS
        return op

    def _loop(self, fix, n=None, seconds=None, tracer=None, keep=True) -> list:
        """Paced loop: query i is due at i / RATE_HZ; a late query starts at once.

        The caller fills the wait before each query with probe kernels
        instead of sleeping.  A sleeping loop measured the CPU's wake-up
        state on a shared virtual machine (median x1.2, p95 x2.5), and the
        kernels sample the host's speed right next to every query: each
        query is normalized by the kernel just before and just after it.
        """
        period = 1.0 / RATE_HZ
        ops, before, after = [], [], []
        start = time.perf_counter()
        i = 0
        while (n is not None and i < n) or (seconds is not None and (i + 1) * period <= seconds):
            due = start + i * period
            last = probe.kernel_seconds()
            if ops:
                after.append(last)
            while time.perf_counter() < due:
                last = probe.kernel_seconds()
            before.append(last)
            ops.append(self._query(fix, i, tracer, keep))
            i += 1
        after.append(probe.kernel_seconds())
        for op, k0, k1 in zip(ops, before, after):
            op.raw, op.norm = op.seconds, probe.normalize(op.seconds, (k0, k1))
        return ops

    def measure(self, fix, seconds: float) -> list:
        return self._loop(fix, seconds=seconds, keep=False)

    def trace_ops(self, fix, tracer=None) -> list:
        return self._loop(fix, n=TRACE_QUERIES, tracer=tracer)

    def same_output(self, a: Op, b: Op) -> bool:
        return np.array_equal(a.output.values, b.output.values)

    def batch_problems(self, ops) -> list:
        return []

    def figures(self, ops) -> dict:
        raw = [1000.0 * op.raw for op in ops]
        norm = [1000.0 * op.norm for op in ops]
        if stats.tail(norm) is None:
            raise ValueError(f"{len(norm)} queries are too few for a tail percentile")
        pct, tail_ms, beyond, n = stats.tail(norm)

        def p90(values):
            return stats.nearest_rank(sorted(values), 90.0)

        busy_ms = sum(norm) / n
        return {
            # The tail is reported but not a slot: on a shared host its
            # spread over seeds (0.2) reached its bound.
            "slots": {"op_ms": stats.median(norm), "a_ms": p90(norm), "b_ms": busy_ms},
            "named": {
                "adapt_ms_p50": named(stats.median(raw), stats.median(norm), "ms"),
                "adapt_ms_p90": named(p90(raw), p90(norm), "ms"),
                "adapt_ms_tail": named(stats.tail(raw)[1], tail_ms,
                                       f"ms (p{pct:g}, {beyond} of {n} beyond)"),
                "adapts_per_s": named(1000.0 * n / sum(raw), 1000.0 / busy_ms, "1/s"),
            },
            "info": {"queries": n, "tail_percentile": pct, "samples_beyond_tail": beyond,
                     "rate_hz": RATE_HZ, "task_pool": TASK_POOL,
                     "median_ms_by_mode": {mode: stats.median(norm[k::2])
                                           for k, mode in enumerate(MODES)}},
        }


# -- pipeline ------------------------------------------------------------------

OUTPUT_FILES = ("model.json", "task_model.json", "task_traj.csv", "report.json")


def pose_arg(vec) -> str:
    return ",".join(repr(float(v)) for v in vec)


@dataclass
class PipelineFixture:
    start: str
    goal: str
    work_root: Path

    def fingerprint(self) -> str:
        return self.start + "|" + self.goal


class Pipeline:
    """The README quick start through cli.main: synth, fit, generalize, evaluate."""

    def __init__(self, work_root: Path):
        self.work_root = work_root

    def setup(self, seed: int) -> PipelineFixture:
        # The README task, moved within a range where every variant succeeds.
        rng = np.random.default_rng([seed])
        start = [0.15 + rng.uniform(-0.03, 0.03), 0.25, 0.063, 0.0, 0.0, 0.0]
        goal = [0.70 + rng.uniform(-0.04, 0.02), 0.25, 0.463,
                0.0, 0.0, 0.2 + rng.uniform(-0.1, 0.1)]
        return PipelineFixture(pose_arg(start), pose_arg(goal), self.work_root)

    def _steps(self, fix, d: Path):
        demos = d / "demos"
        pose = ["--start", fix.start, "--goal", fix.goal]
        return (
            ("synth", ["synth", "--out-dir", str(demos), "--seed", str(SOURCE_SEED)]),
            ("fit", ["fit", "--demos", str(demos / "manifest.json"),
                     "--out", str(d / "model.json")]),
            ("generalize", ["generalize", "--model", str(d / "model.json"), *pose,
                            "--out-model", str(d / "task_model.json"),
                            "--out-traj", str(d / "task_traj.csv")]),
            ("evaluate", ["evaluate", "--traj", str(d / "task_traj.csv"),
                          "--model", str(d / "model.json"), *pose,
                          "--out", str(d / "report.json")]),
        )

    def _pass(self, fix):
        """One pass in a fresh directory.

        Returns each step's perf_counter() interval, the exit codes and
        the files written.
        """
        fix.work_root.mkdir(parents=True, exist_ok=True)
        d = Path(tempfile.mkdtemp(prefix="pass-", dir=fix.work_root))
        try:
            steps, codes = {}, {}
            for step, argv in self._steps(fix, d):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[step] = cli.main(argv)
                steps[step] = (t0, time.perf_counter())
            files = {p.relative_to(d).as_posix(): p.read_bytes()
                     for p in sorted(d.rglob("*")) if p.is_file()}
            return {"steps": steps, "codes": codes, "files": files}
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check(self, op: Op, reference) -> None:
        out = op.output
        op.problems += [f"{s} exited {c}" for s, c in out["codes"].items() if c != 0]
        missing = [f for f in OUTPUT_FILES if f not in out["files"]]
        op.problems += [f"{f} not written" for f in missing]
        if "report.json" not in missing:
            report = json.loads(out["files"]["report.json"])
            if report.get("success") is not True:
                op.problems.append(f"evaluate reports failure: {report.get('failure_reason')}")
        if reference is not None and out["files"] != reference["files"]:
            changed = sorted(set(out["files"]) ^ set(reference["files"])
                             | {f for f in out["files"] if f in reference["files"]
                                and out["files"][f] != reference["files"][f]})
            op.problems.append(f"pass differs from the first pass in {changed}")

    def _run(self, fix, n=None, seconds=None, tracer=None) -> list:
        ops = []

        def step(_):
            op = timed("pass", lambda: self._pass(fix), tracer=tracer)
            if op.ok:
                first = next((o.output for o in ops if o.ok), None)
                self._check(op, first)
            ops.append(op)

        if n is not None:
            for i in range(n):
                step(i)
        else:
            # the byte-identity check needs a second pass with the same seed
            run_until(seconds, step)
            if len(ops) < 2:
                step(1)
        return ops

    def measure(self, fix, seconds: float) -> list:
        with probe.Sampler() as sampler:
            ops = self._run(fix, seconds=seconds)
        for op in ops:
            if op.output is not None:
                op.output["times"] = {name: sampler.adjust(*span)
                                      for name, span in op.output["steps"].items()}
        return ops

    def trace_ops(self, fix, tracer=None) -> list:
        return self._run(fix, n=1, tracer=tracer)

    def same_output(self, a: Op, b: Op) -> bool:
        return a.output["files"] == b.output["files"]

    def batch_problems(self, ops) -> list:
        return []

    def figures(self, ops) -> dict:
        # (raw, normalized) seconds per step of each completed pass
        passes = [op.output["times"] for op in ops if op.output is not None]

        def median(which, name=None):
            return stats.median([p[name][which] if name else sum(t[which] for t in p.values())
                                 for p in passes])

        return {
            "slots": {"op_ms": 1000.0 * median(1), "a_ms": 1000.0 * median(1, "synth"),
                      "b_ms": 1000.0 * median(1, "fit")},
            "named": {"pipeline_s": named(median(0), median(1), "s"),
                      "synth_s": named(median(0, "synth"), median(1, "synth"), "s"),
                      "fit_s": named(median(0, "fit"), median(1, "fit"), "s")},
            "info": {"passes": len(ops),
                     "step_s_median": {s: median(0, s)
                                       for s in ("synth", "fit", "generalize", "evaluate")}},
        }


def make(name: str, work_root: Path):
    if name == "trials":
        return Trials()
    if name == "adapt":
        return Adapt()
    if name == "pipeline":
        return Pipeline(work_root)
    raise ValueError(f"unknown workload {name!r}")
