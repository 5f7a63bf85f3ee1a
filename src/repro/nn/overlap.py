"""One helper thread that overlaps the two directions of a large BiLSTM pass.

A bidirectional LSTM's directions share no data, so the backward one can
scan on a helper thread while the caller scans the forward one, in the
forward pass (:class:`~repro.nn.recurrent.BiLSTM`) and again in BPTT
(:meth:`~repro.nn.tensor.Tensor.backward`). numpy's GEMMs and ufuncs
release the GIL, so the two scans really run in parallel, and neither
scan's arithmetic changes, so every result is bit-identical to running
them one after the other. :func:`should_overlap` decides when, with no
knob.

Code already running on the helper never submits to it and runs inline
instead, so a nested pass cannot deadlock the one-thread pool. A forked
child drops the executor it inherited, whose thread does not exist there.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TypeVar

__all__ = ["MIN_OVERLAP_SIZE", "blas_threads", "should_overlap", "submit",
           "usable_cpus"]

_T = TypeVar("_T")

#: Smallest batch × hidden size of an LSTM scan that runs overlapped. The
#: measured crossover (DESIGN.md, "Fused recurrent autograd"): overlap is
#: slower up to 2,048, mixed at 4,096 (slower for H <= 32) and faster for
#: every measured shape from 6,144 up.
MIN_OVERLAP_SIZE = 6144

#: Thread-count getters of the OpenBLAS builds numpy links against: numpy
#: 2 wheels bundle ``scipy_openblas`` (64- or 32-bit integers), numpy 1
#: wheels a ``64_``-suffixed OpenBLAS, and distribution builds a plain one.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()
_local = threading.local()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_thread_getter() -> Callable[[], int] | None:
    """The loaded BLAS's thread-count function, or ``None`` if not found."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        # dlsym through numpy's own extension also searches the libraries
        # it links, so this finds the BLAS numpy actually loaded.
        library = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name in _BLAS_THREAD_SYMBOLS:
        function = getattr(library, name, None)
        if function is not None:
            function.restype, function.argtypes = ctypes.c_int, ()
            getter: Callable[[], int] = function
            return getter
    return None


def blas_threads() -> int | None:
    """Threads the BLAS numpy loaded runs, or ``None`` if it cannot be read."""
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


def should_overlap(size: int) -> bool:
    """Whether an LSTM scan of batch × hidden ``size`` runs overlapped.

    All must hold: the caller is not the helper itself, the scan is at
    least :data:`MIN_OVERLAP_SIZE` (smaller scans mostly trade the GIL
    between their per-timestep Python loops), two CPUs are usable, and the
    BLAS runs one thread. A multithreaded BLAS already keeps both cores
    busy inside each GEMM; a second scan would only contend with it.
    """
    return (not getattr(_local, "on_helper", False)
            and size >= MIN_OVERLAP_SIZE
            and usable_cpus() >= 2
            and blas_threads() == 1)


def _mark_helper() -> None:
    _local.on_helper = True


def submit(fn: Callable[[], _T]) -> Future[_T]:
    """Run ``fn`` on the helper thread, started on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-nn-overlap",
                initializer=_mark_helper)
        return _executor.submit(fn)


def _forget_helper() -> None:
    """After a fork: the inherited executor's thread is gone in the child."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_helper)
