"""Thread discipline and host diagnostics for every benchmark process.

:data:`THREAD_ENV` pins OpenBLAS and OpenMP to one thread. It must be in
the environment before numpy loads, so ``run.py`` applies it before any
other import, and :func:`child_env` hands it to child commands. The host
diagnostics are recorded with each run and never used to drop one.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
from pathlib import Path

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    """Set one BLAS/OpenMP thread for this process and its children."""
    os.environ.update(THREAD_ENV)


def child_env(root: Path) -> dict[str, str]:
    """The environment of a child command: no ``RF_PROTECT_*`` knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("RF_PROTECT_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, or ``None`` off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    values = [int(value) for value in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


class HostProbe:
    """CPU steal share and load average over the span of one run."""

    def __init__(self) -> None:
        self._start = _cpu_ticks()

    def report(self) -> dict[str, object]:
        end = _cpu_ticks()
        steal_frac = None
        if self._start is not None and end is not None:
            total = end[1] - self._start[1]
            steal_frac = (end[0] - self._start[0]) / total if total else 0.0
        try:
            affinity = len(os.sched_getaffinity(0))
        except AttributeError:
            affinity = os.cpu_count()
        return {
            "nproc": affinity,
            "threads": {key: os.environ.get(key) for key in THREAD_ENV},
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "cpu_steal_frac": steal_frac,
            "loadavg_1m": os.getloadavg()[0],
        }
