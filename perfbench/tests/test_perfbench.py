"""Tests for the benchmark's own code: tracing, statistics and output checks.

Run with:  python -m pytest perfbench/tests
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import probe  # noqa: E402
import stats  # noqa: E402
import sysinfo  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from gmmgen import bench, data, scene, synth  # noqa: E402
from gmmgen.metrics import EvalReport, FailureReason  # noqa: E402
from gmmgen.reparam import TaskSpec  # noqa: E402


def gmmgen_bindings():
    """(module name, attribute) -> object for every function bound in gmmgen."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "gmmgen" or name.startswith("gmmgen."))
            for attr, value in vars(module).items() if callable(value)}


# -- tracing -------------------------------------------------------------------

def test_install_wraps_every_binding_and_restore_puts_back_originals():
    before = gmmgen_bindings()
    original = scene.trajectory_success
    tracer = layers.make_tracer()
    with tracer:
        tracer.install(layers.targets(), "gmmgen")
        # one function, three modules bind it: all see the same wrapper
        wrapped = scene.trajectory_success
        assert wrapped is not original
        assert wrapped.__wrapped_original__ is original
        assert bench.trajectory_success is wrapped
        assert synth.trajectory_success is wrapped
        assert scene.scene_collides.__wrapped_original__ is not None
        assert data.resample is not before[("gmmgen.data", "resample")]
    after = gmmgen_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(hasattr(v, "__wrapped_original__") for v in after.values())


def test_restore_runs_when_the_traced_code_raises():
    before = gmmgen_bindings()
    tracer = layers.make_tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.install(layers.targets(), "gmmgen")
            raise RuntimeError("boom")
    assert all(gmmgen_bindings()[k] is v for k, v in before.items())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(counted={"leaf"}, clock=clock)

    def at(t, action, name=None):
        clock.now = t
        tracer.enter(name) if action == "enter" else tracer.exit()

    # op [0, 10]: child a [1, 4] holding leaf [2, 3]; child b [5, 8]; leaf [9, 9.5]
    at(0, "enter", "op")
    at(1, "enter", "a")
    at(2, "enter", "leaf")
    at(3, "exit")
    at(4, "exit")
    at(5, "enter", "b")
    at(8, "exit")
    at(9, "enter", "leaf")
    at(9.5, "exit")
    at(10, "exit")

    totals = tracer.totals()
    assert totals["op"] == (1, 10.0, 10.0 - 3.0 - 3.0 - 0.5)
    assert totals["a"] == (1, 3.0, 2.0)
    assert totals["b"] == (1, 3.0, 3.0)
    assert totals["leaf"] == (2, 1.5, 1.5)
    # self times of the tree add up to the root's duration
    assert sum(t[2] for t in totals.values()) == pytest.approx(10.0)
    # counted calls leave no span; spans point at their parent span
    spans = {s.name: s for s in tracer.spans}
    assert sorted(spans) == ["a", "b", "op"]
    assert spans["a"].parent == spans["op"].id and spans["b"].parent == spans["op"].id
    assert spans["op"].parent is None
    assert spans["a"].self_s == 2.0


def test_watched_calls_are_counted_per_caller_and_root():
    tracer = Tracer(counted={"inner"}, watched={"inner": ("outer",)})
    with tracer.span("root"):
        tracer.enter("inner")
        tracer.exit()
        with tracer.span("outer"):
            for _ in range(3):
                tracer.enter("inner")
                tracer.exit()
    assert tracer.counter("outer>inner") == 3
    assert tracer.counter("outer>inner", {"root"}) == 3
    assert tracer.counter("outer>inner", {"other"}) == 0
    assert tracer.totals()["inner"][0] == 4


def test_layer_metrics_cover_every_benchmark_json_entry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = layers.layer_metrics(layers.make_tracer(), 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, v["unit"]) for k, v in metrics.items()]


# -- statistics ----------------------------------------------------------------

def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert stats.tail(range(10)) is None
    assert stats.tail(range(19)) is None  # even the median leaves only 9 above it
    pct, value, beyond, n = stats.tail(range(1, 21))
    assert (pct, value, beyond, n) == (50.0, 10, 10, 20)
    pct, value, beyond, n = stats.tail(range(1, 101))
    assert (pct, value, beyond, n) == (90.0, 90, 10, 100)
    pct, value, beyond, n = stats.tail(range(1, 2001))
    assert (pct, value, beyond, n) == (99.5, 1990, 10, 2000)
    pct, _, beyond, n = stats.tail(range(1999))
    assert (pct, beyond, n) == (99.0, 19, 1999)


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    assert stats.quartile_spread(vals) == (q3 - q1) / q2


def test_binomial_cdf():
    assert stats.binomial_cdf(10, 10, 0.3) == pytest.approx(1.0)
    assert stats.binomial_cdf(0, 4, 0.5) == pytest.approx(1 / 16)


def test_sampler_adjust_removes_handler_time_and_rescales_by_speed():
    sampler = probe.Sampler()
    # samples at 1, 2, 3 s; the kernel took REF_S, then twice that (slow), then REF_S
    sampler.starts = [1.0, 2.0, 3.0]
    sampler.handler_s = [0.01, 0.02, 0.01]
    sampler.kernel_s = [probe.REF_S, 2 * probe.REF_S, probe.REF_S]
    raw, norm = sampler.adjust(0.5, 3.5)
    assert raw == pytest.approx(3.0 - 0.04)
    assert norm == pytest.approx(raw * (1 + 0.5 + 1) / 3)
    # a short operation uses the samples within WINDOW_S of it
    raw, norm = sampler.adjust(2.05, 2.06)
    assert raw == pytest.approx(0.01)
    assert norm == pytest.approx(0.005)
    with pytest.raises(RuntimeError):
        sampler.adjust(10.0, 10.01)


def test_sampler_samples_while_active_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with probe.Sampler(interval=0.01) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert len(sampler.kernel_s) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- output checks ---------------------------------------------------------------

def make_record(success=True, reason=FailureReason.NONE, start_mm=0.5):
    shelf = scene.default_scene()
    z0 = scene.rest_height(shelf, shelf.levels[0])
    z1 = scene.rest_height(shelf, shelf.levels[1])
    task = TaskSpec(data.Pose([0.2, 0.25, z0], [0, 0, 0]), data.Pose([0.6, 0.25, z1], [0, 0, 0.1]))
    report = EvalReport(success, reason, start_mm, 0.1, 0.4, 0.1, 1.0, 0.2, 1.0, 0.2,
                        0.01, 0.5, 5.0)
    return bench.TrialRecord(0, task, report), shelf


def test_trial_check_passes_a_consistent_record():
    record, shelf = make_record()
    assert workloads.check_trial(record, shelf, scene.SuccessThresholds()) == []
    record, shelf = make_record(False, FailureReason.COLLISION)
    assert workloads.check_trial(record, shelf, scene.SuccessThresholds()) == []


def test_trial_check_marks_corrupted_records_failed():
    thresholds = scene.SuccessThresholds()
    record, shelf = make_record(start_mm=25.0)  # success despite a 25 mm miss
    assert workloads.check_trial(record, shelf, thresholds)
    record, shelf = make_record(False, FailureReason.BOUNDARY)  # in-bound "boundary" failure
    assert workloads.check_trial(record, shelf, thresholds)
    record, shelf = make_record()
    moved = TaskSpec(data.Pose([0.2, 0.25, 0.30], [0, 0, 0]), record.task.goal)
    assert workloads.check_trial(bench.TrialRecord(0, moved, record.report), shelf, thresholds)


def test_success_rate_checks():
    good_full = Counter({"none": 13, "collision": 3})
    good_abl = Counter({"none": 14, "collision": 18})
    assert workloads.check_success_rates(good_full, good_abl) == []
    # of 16 full trials, 7 successes pass the binomial test and 6 fail it
    few_abl = Counter({"none": 2, "collision": 30})
    assert workloads.check_success_rates(Counter({"none": 7, "collision": 9}), few_abl) == []
    assert workloads.check_success_rates(Counter({"none": 6, "collision": 10}), few_abl)
    assert workloads.check_success_rates(good_full, Counter({"none": 32}))


def test_trial_counts_depend_only_on_the_time_budget():
    assert workloads.trial_counts(20) == {"full": 16, "ablated": 32}
    assert workloads.trial_counts(20.0) == workloads.trial_counts(20)
    assert workloads.trial_counts(1) == {"full": 1, "ablated": 1}


def test_blas_pinning_refuses_to_run_after_numpy_is_loaded():
    assert "numpy" in sys.modules
    with pytest.raises(RuntimeError):
        sysinfo.pin_blas_threads()


def test_adapt_boundary_check_marks_a_shifted_trajectory_failed():
    times = np.linspace(0.0, 1.0, 11)
    start = np.array([0.2, 0.25, 0.063, 0.0, 0.0, 0.0])
    goal = np.array([0.6, 0.25, 0.463, 0.0, 0.0, 0.2])
    values = start + np.outer(times, goal - start)
    task = TaskSpec(data.Pose.from_vector(start), data.Pose.from_vector(goal))
    thresholds = scene.SuccessThresholds()
    assert workloads.boundary_problems(data.Trajectory(times, values), task, thresholds) == []
    shifted = values.copy()
    shifted[-1, 0] += 0.02
    assert workloads.boundary_problems(data.Trajectory(times, shifted), task, thresholds)
    turned = values.copy()
    turned[0, 5] += np.radians(6.0)
    assert workloads.boundary_problems(data.Trajectory(times, turned), task, thresholds)


def test_pipeline_check_marks_changed_bytes_and_failed_steps():
    pipeline = workloads.Pipeline(Path("unused"))
    files = {name: b"x" for name in workloads.OUTPUT_FILES}
    files["report.json"] = json.dumps({"success": True}).encode()
    codes = {"synth": 0, "fit": 0, "generalize": 0, "evaluate": 0}
    first = {"files": files, "codes": codes, "step_s": {}}

    op = workloads.Op("pass", 0.0, 1.0, first)
    pipeline._check(op, None)
    assert op.ok

    corrupted = dict(files, **{"task_traj.csv": b"y"})
    op = workloads.Op("pass", 0.0, 1.0, {"files": corrupted, "codes": codes, "step_s": {}})
    pipeline._check(op, first)
    assert not op.ok and "task_traj.csv" in op.problems[0]

    failing = dict(files, **{"report.json": json.dumps({"success": False}).encode()})
    op = workloads.Op("pass", 0.0, 1.0, {"files": failing, "codes": dict(codes, fit=2),
                                     "step_s": {}})
    pipeline._check(op, None)
    assert len(op.problems) == 2
