"""Thread pins and the environment record shared by every benchmark process.

This module imports nothing heavy, so ``run.py`` can pin its children
without importing numpy itself.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("spatial", "internal", "cli")

# One BLAS/OpenMP thread everywhere: OpenBLAS would otherwise start up to
# MAX_THREADS workers of its own and the timings would depend on how busy
# the other CPUs are.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def pin_threads() -> None:
    """Pin this process; call before numpy is imported."""
    os.environ.update(THREAD_PINS)


def child_env() -> dict:
    """Environment for every child process: pinned, with the checkout's source first."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    """Import ``modemix`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import modemix

    origin = Path(modemix.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"modemix was imported from {origin}, not from {SRC}")
    return modemix


def environment() -> dict:
    """What a reader needs to compare two runs: versions, pins and CPUs."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }
