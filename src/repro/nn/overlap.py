"""One helper thread that overlaps the scans of a large LSTM pass.

A bidirectional LSTM's directions share no data, so the backward one can
scan on a helper thread while the caller scans the forward one, in the
forward pass (:class:`~repro.nn.recurrent.BiLSTM`) and again in BPTT
(:meth:`~repro.nn.tensor.Tensor.backward`). The layers of a stacked LSTM
do share data, but only chunk by chunk: layer ``l + 1`` needs just the
chunk of timesteps layer ``l`` has finished, so :func:`wavefront` scans
layer ``l`` over one chunk on the helper while the caller scans layer
``l + 1`` over the chunk before, and BPTT runs the same wave top down
(:func:`~repro.nn.functional.lstm_sequence`). numpy's GEMMs and ufuncs
release the GIL, so the two threads really run in parallel, and no
scan's arithmetic depends on the thread that runs it, so every result is
bit-identical to running the scans one after the other.
:func:`should_overlap` decides when, with no knob.

Code already running on the helper never submits to it and runs inline
instead, so a nested pass cannot deadlock the one-thread pool. A forked
child drops the executor it inherited, whose thread does not exist there.

The BLAS thread-count probe and its setter live here too: the overlap
guard reads the count, and the experiment runner's forked workers set it
(:func:`repro.experiments.runner.run_experiments`).
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Callable, Sequence
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, TypeVar

__all__ = ["MIN_OVERLAP_SIZE", "MIN_STACK_SIZE", "blas_threads",
           "set_blas_threads", "should_overlap", "submit", "usable_cpus",
           "wavefront"]

_T = TypeVar("_T")

#: Smallest batch × hidden size of an LSTM scan that runs overlapped. The
#: measured crossover (DESIGN.md, "Fused recurrent autograd"): overlap is
#: slower up to 2,048, mixed at 4,096 (slower for H <= 32) and faster for
#: every measured shape from 6,144 up.
MIN_OVERLAP_SIZE = 6144

#: Smallest batch × hidden size of a stacked LSTM that scans in chunks,
#: which is what lets :func:`wavefront` overlap its layers. The measured
#: crossover of a two-layer stack (same section): the wavefront is slower
#: up to 4,096, mixed at 6,144 (as slow as 0.83x at H = 32) and faster
#: for every measured shape from 8,192 up. A stack hands a chunk over per
#: wave, so its floor sits above a BiLSTM's one handoff per pass.
MIN_STACK_SIZE = 8192

#: Thread-count functions of the OpenBLAS builds numpy links against,
#: ``{action}`` being ``get`` or ``set``: numpy 2 wheels bundle
#: ``scipy_openblas`` (64- or 32-bit integers), numpy 1 wheels a
#: ``64_``-suffixed OpenBLAS, and distribution builds a plain one.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_{action}_num_threads64_",
    "scipy_openblas_{action}_num_threads",
    "openblas_{action}_num_threads64_",
    "openblas_{action}_num_threads",
)

#: ``(restype, argtypes)`` of each action's function.
_BLAS_SIGNATURES = {"get": (ctypes.c_int, ()), "set": (None, (ctypes.c_int,))}

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
def _blas_function(action: str) -> Callable[..., Any] | None:
    """The loaded BLAS's ``get``/``set`` thread-count function, or ``None``."""
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
        function = getattr(library, name.format(action=action), None)
        if function is not None:
            function.restype, function.argtypes = _BLAS_SIGNATURES[action]
            found: Callable[..., Any] = function
            return found
    return None


def blas_threads() -> int | None:
    """Threads the BLAS numpy loaded runs, or ``None`` if it cannot be read."""
    getter = _blas_function("get")
    return None if getter is None else int(getter())


def set_blas_threads(count: int) -> None:
    """Run the BLAS numpy loaded on ``count`` threads, where it can be set."""
    setter = _blas_function("set")
    if setter is not None:
        setter(count)


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


def wavefront(lanes: Sequence[Sequence[Callable[[], None]]],
              size: int) -> None:
    """Run each lane's steps in order, each after that of the lane before.

    The lanes are the layers of a stacked LSTM scan and the steps its
    chunks (:func:`repro.nn.functional.lstm_sequence`): step ``c`` of a
    lane reads what step ``c`` of the lane before it wrote. Inline, the
    lanes run one after another. When :func:`should_overlap` holds for
    ``size``, they run as a wavefront: wave ``w`` runs step ``w - j`` of
    each lane ``j``, even lanes on the helper and odd lanes on this
    thread, and ends when both threads have run their share, so no step
    waits on another mid-wave. A wave whose steps all fall to one thread
    runs here. An exception in either share is raised once the other
    share has finished, and leaves the helper free.
    """
    if len(lanes) < 2 or not should_overlap(size):
        for lane in lanes:
            _run_steps(lane)
        return
    for wave in range(max(j + len(lane) for j, lane in enumerate(lanes))):
        helper_share: list[Callable[[], None]] = []
        own_share: list[Callable[[], None]] = []
        for j, lane in enumerate(lanes):
            if 0 <= wave - j < len(lane):
                (own_share if j % 2 else helper_share).append(lane[wave - j])
        if not helper_share or not own_share:
            _run_steps(helper_share + own_share)
            continue
        job = submit(functools.partial(_run_steps, helper_share))
        try:
            _run_steps(own_share)
        except BaseException:
            futures.wait([job])
            raise
        job.result()


def _run_steps(steps: Sequence[Callable[[], None]]) -> None:
    for step in steps:
        step()


def _forget_helper() -> None:
    """After a fork: the inherited executor's thread is gone in the child."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_helper)
