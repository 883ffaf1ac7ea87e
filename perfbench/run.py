#!/usr/bin/env python3
"""Run one gmmgen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {trials,adapt,pipeline} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; gmmgen is imported from its `src/`.
With --trace 0 the run sets up several times, measures for about S
seconds and prints the end-to-end metrics.  With --trace 1 it sets up once
under the tracer, runs a fixed operation list untraced and then traced,
and prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is the result object.  A run record
(machine, settings, outcome mix, spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import sysinfo  # noqa: E402  (HERE is sys.path[0] when run as a script)

sysinfo.pin_blas_threads()  # before anything loads numpy and with it BLAS

import probe  # noqa: E402
import stats  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3  # before the set-ups, and as many again after the measurement
IMPORT_PROBE = ("import json, time; t, c = time.perf_counter(), time.process_time(); "
                "import gmmgen, gmmgen.cli; "
                "print(json.dumps([time.perf_counter() - t, time.process_time() - c]))")

# (metric, unit); see README.md for what each slot means per workload.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("a_ms", "ms"),
    ("b_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("trials", "adapt", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_seconds() -> list:
    """(wall, CPU) seconds of `import gmmgen` in fresh interpreters, as a
    user's process pays it.  setup_s takes the CPU seconds: over 42
    imports on a shared 2-vCPU virtual machine, their median of five
    varied half as much as the wall time's (coefficient of variation 0.04
    vs 0.08).  Probe kernels timed next to each import, in either process,
    did not track the import's speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(tuple(json.loads(proc.stdout)))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counts(ops, extra_problems) -> tuple:
    attempted = sum(op.units for op in ops)
    failed = sum(op.units for op in ops if not op.ok)
    if extra_problems:
        failed = attempted
    return attempted, failed


def problems_of(ops, limit=20) -> list:
    found = [f"{op.kind}: {p}" for op in ops for p in op.problems]
    return found[:limit]


def measure_run(args, wl) -> tuple:
    imports = import_seconds()
    spans, prints, fix = [], set(), None
    with probe.Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fix = wl.setup(args.seed)
            spans.append((t0, time.perf_counter()))
            prints.add(fix.fingerprint())
    setups = [sampler.adjust(*span) for span in spans]
    extra = [] if len(prints) == 1 else ["repeated set-ups built different inputs"]

    ops = wl.measure(fix, float(args.seconds))
    # The host's speed holds for seconds at a time, so imports made back to
    # back share it; a second batch tens of seconds later samples another.
    imports += import_seconds()
    extra += wl.batch_problems(ops)
    figures = wl.figures(ops)
    attempted, failed = counts(ops, extra)
    values = dict(figures["slots"])
    import_s = stats.median([cpu for _, cpu in imports])
    values["setup_s"] = import_s + stats.median([n for _, n in setups])
    values["peak_rss_mb"] = peak_rss_mb()
    values["ok_ratio"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "setup_s_raw": stats.median([wall for wall, _ in imports])
        + stats.median([r for r, _ in setups]),
        "import_s": [{"wall": wall, "cpu": cpu} for wall, cpu in imports],
        "setup_work_s": setups,
        "named": figures["named"],
        "failed_ratio": failed / attempted,
        "info": figures["info"],
        "problems": extra + problems_of(ops),
    }
    return metrics, attempted, failed, record


def trace_run(args, wl) -> tuple:
    import layers

    tracer = layers.make_tracer()
    targets = layers.targets()
    with tracer:
        tracer.install(targets, "gmmgen")
        with tracer.span("setup"):
            fix = wl.setup(args.seed)
    plain = wl.trace_ops(fix)
    with tracer:
        tracer.install(targets, "gmmgen")
        traced = wl.trace_ops(fix, tracer)

    extra = []
    if len(plain) != len(traced):
        extra.append("traced run made a different number of operations")
    for a, b in zip(plain, traced):
        if a.ok and b.ok and not wl.same_output(a, b):
            b.problems.append("traced output differs from the untraced output")
    ops = plain + traced
    attempted, failed = counts(ops, extra)

    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    overhead = (traced_s - plain_s) / plain_s
    kinds = sorted({op.kind for op in traced})
    # calls made by the output checks, outside any root span, are left out
    roots = ["setup"] + [f"op.{k}" for k in kinds]
    metrics = layers.layer_metrics(tracer, overhead, set(roots))

    per_kind = {}
    for kind in kinds:
        root = f"op.{kind}"
        totals = tracer.totals({root})
        per_kind[kind] = {
            "untraced_s": sum(op.seconds for op in plain if op.kind == kind),
            "traced_s": sum(op.seconds for op in traced if op.kind == kind),
            "self_sum_s": sum(t[2] for t in totals.values()),
            "ops": sum(op.kind == kind for op in traced),
        }
    breakdown = {root: {name: {"calls": c, "total_s": t, "self_s": s}
                        for name, (c, t, s) in sorted(tracer.totals({root}).items(),
                                                      key=lambda kv: -kv[1][2])}
                 for root in roots}
    record = {
        "overhead_ratio": overhead,
        "per_kind": per_kind,
        "self_time_by_root": breakdown,
        "poses_checked_ratio_by_root": {
            root: layers.layer_metrics(tracer, overhead, {root})
            ["scene.poses_checked_ratio"]["value"]
            for root in breakdown},
        "problems": extra + problems_of(ops),
    }
    spans = [vars(s) for s in tracer.spans]
    return metrics, attempted, failed, record, spans


def print_report(args, record, metrics) -> None:
    print(f"gmmgen benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    m = record["machine"]
    print(f"machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, blas {m['blas']['name']} "
          f"{m['blas']['version']} threads {m['blas_runtime_threads'] or 'unknown'}")
    for name, entry in record.get("named", {}).items():
        print(f"  {name:24s} {entry['value']:.6g} {entry['unit']} "
              f"(normalized {entry['normalized']:.6g})")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    for kind, row in record.get("per_kind", {}).items():
        print(f"  op.{kind}: untraced {row['untraced_s']:.4f} s, traced {row['traced_s']:.4f} s, "
              f"self-time sum {row['self_sum_s']:.4f} s over {row['ops']} ops")
    if "info" in record:
        print("  info: " + json.dumps(record["info"], sort_keys=True))
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gmmgen" / "__init__.py").is_file():
        print(f"error: no gmmgen package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gmmgen

    if Path(gmmgen.__file__).resolve().parent != (SRC / "gmmgen").resolve():
        print(f"error: imported gmmgen from {gmmgen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, OUT / "work")
    if args.trace:
        metrics, attempted, failed, record, spans = trace_run(args, wl)
    else:
        metrics, attempted, failed, record = measure_run(args, wl)
        spans = None
    record["machine"] = sysinfo.machine_record(ROOT, SRC)
    threads = record["machine"]["blas_runtime_threads"]
    if any(n != int(sysinfo.BLAS_THREADS) for n in threads.values()):
        record["problems"].append(f"BLAS runs with {threads} threads, "
                                  f"not {sysinfo.BLAS_THREADS}")
        failed = attempted
    record["settings"] = {"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "source_seed": workloads.SOURCE_SEED}
    record["metrics"] = metrics

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    print_report(args, record, metrics)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
