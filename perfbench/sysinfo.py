"""Machine and settings recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

# Every BLAS build numpy may link reads one of these when it is loaded;
# the benchmark pins them to one thread before numpy is imported so all
# runs use the same count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# thread-count getters of the OpenBLAS builds numpy and scipy ship or link
OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def pin_blas_threads() -> None:
    """Pin BLAS to BLAS_THREADS; an already loaded BLAS would not see it."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports, by library file.

    Read from the library itself, so it shows the count the process
    really uses, whatever the environment says.  Empty where the loaded
    libraries cannot be listed (no /proc/self/maps) or none is OpenBLAS.
    """
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return {}
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in OPENBLAS_GETTERS:
            if hasattr(lib, name):
                found[Path(path).name] = int(getattr(lib, name)())
                break
    return found


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return platform.processor() or "unknown"
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, src: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_runtime_threads": blas_runtime_threads(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }
