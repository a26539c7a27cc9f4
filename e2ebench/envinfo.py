"""The environment block every benchmark result carries."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

#: thread-count variables BLAS libraries read at load time; recorded, never set
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def repro_vars() -> dict[str, str]:
    """Every ``REPRO_*`` variable in the environment."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def _loaded_openblas() -> list[str]:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS numpy loaded, or ``None``."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``root/.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = None
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "blas_vendor": vendor,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "repro_env": repro_vars(),
    }
