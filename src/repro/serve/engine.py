"""Batch execution: a key-homogeneous group of requests -> sensing results.

This is the synchronous compute half of the service (the scheduler half
lives in :mod:`repro.serve.service`); workers call :func:`execute_batch`
from the executor thread pool.

A batch runs the one sense path of the radar package:
:meth:`~repro.radar.radar.FmcwRadar.sense_batch` calls
:func:`~repro.radar.stages.sense_requests` on the whole group, the same
kernels a direct ``FmcwRadar.sense`` runs on a batch of one. Emit shares a
scene's geometry across its requests while each request draws from its
*own* seeded generator; Synthesize, RangeFFT and BackgroundSubtract run
once over the stacked cube (each request's first frame re-zeroed); and
Beamform gives each request a GEMM of its own shape. So a request's bits
do not depend on how the scheduler grouped it, and served batches land in
the same per-stage wall-time histograms as direct calls.

If anything in the batch raises, :func:`execute_batch` retries each
request alone as a direct ``FmcwRadar.sense`` — the same kernels on a
batch of one — so the batch-mates of a poisoned request still get exactly
the bits a fault-free batch gives them, and the poisoned request alone
fails, with a typed :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from collections.abc import Sequence

import numpy as np

from repro.errors import ReproError, ServeError
from repro.radar.config import RadarConfig
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.stages import SenseInput
from repro.serve.request import (
    BACKEND_ISOLATED,
    BACKEND_VECTORIZED,
    BatchKey,
    SenseRequest,
)

__all__ = [
    "ExecutionItem",
    "ExecutionOutcome",
    "execute_batch",
    "radar_for",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class ExecutionItem:
    """One admitted request handed to the execution engine."""

    request_id: int
    request: SenseRequest
    key: BatchKey


@dataclasses.dataclass(frozen=True)
class ExecutionOutcome:
    """What the engine produced for one item: a result or an error."""

    request_id: int
    result: SensingResult | None
    backend: str
    error: BaseException | None = None


@functools.lru_cache(maxsize=64)
def radar_for(config: RadarConfig) -> FmcwRadar:
    """A shared radar facade per distinct configuration.

    ``FmcwRadar`` is immutable after construction (config + array
    geometry), so one instance can serve every request and executor thread
    with that configuration; caching it keeps per-request admission cheap
    and reuses the array's process-wide steering/taper/lag-basis memos.
    """
    return FmcwRadar(config)


def _run_group_vectorized(key: BatchKey,
                          items: Sequence[ExecutionItem],
                          ) -> list[SensingResult]:
    """The whole key-homogeneous group through one sense pass."""
    radar = radar_for(key.config)
    return radar.sense_batch([
        SenseInput(item.request.scene,
                   radar.frame_times(item.request.duration,
                                     item.request.start_time),
                   np.random.default_rng(item.request.seed))
        for item in items
    ], max_range=key.max_range)


def execute_batch(items: Sequence[ExecutionItem]) -> list[ExecutionOutcome]:
    """Execute one flushed batch; never raises, reports per-item outcomes.

    Runs the whole group through one sense pass first; on any failure,
    retries each request alone (:func:`_sense_alone`) so a single
    poisoned request cannot take its batch-mates down with it.
    """
    if not items:
        return []
    key = items[0].key
    if any(item.key != key for item in items):
        raise ValueError("execute_batch requires a key-homogeneous batch")
    try:
        results = _run_group_vectorized(key, items)
    except Exception as error:
        logger.warning(
            "batch sense failed for %d request(s) (%s: %s); "
            "retrying each request alone",
            len(items), type(error).__name__, error,
        )
        return [_isolated_outcome(item) for item in items]
    return [
        ExecutionOutcome(request_id=item.request_id, result=result,
                         backend=BACKEND_VECTORIZED)
        for item, result in zip(items, results)
    ]


def _sense_alone(item: ExecutionItem) -> SensingResult:
    """One request as a direct sense with its own seed, start and crop.

    A batch of one runs the batch's kernels, so a request that succeeds
    here gets the bits a fault-free batch would have given it. A
    failure that is not already a :class:`ReproError` becomes a
    :class:`ServeError` naming the request and the original type.
    """
    request = item.request
    try:
        return radar_for(item.key.config).sense(
            request.scene, request.duration,
            rng=np.random.default_rng(request.seed),
            start_time=request.start_time, max_range=item.key.max_range)
    except ReproError:
        raise
    except Exception as error:
        raise ServeError(
            f"request {item.request_id} failed: "
            f"{type(error).__name__}: {error}") from error


def _isolated_outcome(item: ExecutionItem) -> ExecutionOutcome:
    try:
        result = _sense_alone(item)
    except ReproError as error:  # surfaced per request, not swallowed
        logger.warning("isolated retry failed for request %d (%s: %s)",
                       item.request_id, type(error).__name__, error)
        return ExecutionOutcome(request_id=item.request_id, result=None,
                                backend=BACKEND_ISOLATED, error=error)
    return ExecutionOutcome(request_id=item.request_id, result=result,
                            backend=BACKEND_ISOLATED)
