"""Run every test module in its own pytest process and list the failures.

Derandomized hypothesis tests can draw other examples when their module
runs without the rest of the suite, so a module can fail alone and pass
in the full run.  This script is not collected by pytest.  Run it from
the repository root:

    PYTHONPATH=src python tests/run_modules_alone.py [MODULE ...]

It prints one line per module and exits 1 if any module fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def modules() -> list[str]:
    """Every tier-1 test module, as paths relative to the repository root."""
    return [str(path.relative_to(ROOT)) for folder in ("tests", "perfbench/tests")
            for path in sorted(ROOT.glob(f"{folder}/test_*.py"))]


def run(module: str) -> tuple[int, float, str]:
    """(pytest's exit code, seconds, last line of its output) for one module."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           module], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or ["(no output)"]
    return proc.returncode, time.perf_counter() - start, lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="test modules (default: every one)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    failed = []
    for module in args.modules or modules():
        code, seconds, summary = run(module)
        print(f"{'ok  ' if code == 0 else 'FAIL'} {module} ({seconds:.1f} s): {summary}",
              flush=True)
        if code != 0:
            failed.append(module)
    print(f"{len(failed)} module(s) failed alone in {time.perf_counter() - start:.1f} s"
          + (": " + " ".join(failed) if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
