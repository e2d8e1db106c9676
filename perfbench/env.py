"""The environment record every result carries."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

#: Thread-count getters of the OpenBLAS builds NumPy ships with.
_BLAS_GETTERS = ("openblas_get_num_threads",
                 "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_")


def _loaded_blas() -> list[str]:
    """Shared objects mapped into this process that look like a BLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if line.rstrip().endswith(".so")
                     or ".so." in line}
    except OSError:
        return []
    return sorted(p for p in paths
                  if any(k in os.path.basename(p).lower()
                         for k in ("blas", "mkl_rt")))


def _blas_threads(path: str) -> int | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in _BLAS_GETTERS:
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def environment(seed: int, mp_start_method: str | None) -> dict:
    """``mp_start_method`` is the start method the workload's workers
    use, ``None`` for a workload without worker processes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # NumPy without the dict report
        blas = {}
    libs = _loaded_blas()
    threads = next((t for t in map(_blas_threads, libs)
                    if t is not None), None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": [os.path.basename(p) for p in libs],
        "blas_threads": threads,
        "mp_start_method": mp_start_method,
        "seed": seed,
    }
