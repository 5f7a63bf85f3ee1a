"""The asyncio sensing service: admission, scheduling, execution, telemetry.

:class:`SenseService` is the event-loop half of the serving stack. It wires
the pure :class:`~repro.serve.batcher.MicroBatcher` policy to real time and
real compute:

- **Admission control** — a bounded number of requests may wait for
  execution; beyond ``queue_depth``, submissions fail fast with
  :class:`~repro.errors.ServiceOverloadedError` instead of growing an
  unbounded backlog (load shedding, not buffering).
- **Micro-batching** — admitted requests coalesce per
  :class:`~repro.serve.request.BatchKey`; a batch flushes when it reaches
  ``max_batch_size`` or when its first request has waited
  ``batch_window_ms`` (a background flusher task polls the batcher).
- **Bounded worker pool** — ``workers`` asyncio workers pull flushed
  batches from a queue and run them on a thread pool (numpy releases the
  GIL in the kernels that matter), so the event loop never blocks on
  compute.
- **Deadlines and cancellation** — every request carries a deadline from
  admission; a request whose deadline passes while it is still queued is
  failed with :class:`~repro.errors.DeadlineExceededError` *before* any
  compute is spent on it, and a caller that cancels its future simply
  never gets resolved (its batch-mates are unaffected).
- **Fault isolation** — execution is delegated to
  :func:`repro.serve.engine.execute_batch`, which retries each request
  alone (a direct ``FmcwRadar.sense``: the same kernels on a batch of one)
  if the batch raises, so one poisoned request fails with a typed
  error while its batch-mates get the bits a fault-free batch gives them;
  the retry is visible in the ``batches.fallback`` and
  ``requests.isolated`` counters and each response's ``backend`` field.
- **Tracking sessions** — :meth:`SenseService.submit_tracked` senses
  through the same admission/batching path, then ingests the resulting
  frames into the request's session tracker
  (:class:`~repro.serve.session.SessionStore`); the flusher additionally
  runs the store's idle-eviction sweep on its own cadence.

Everything the service does is observable through its own
:class:`~repro.obs.MetricsRegistry` (:attr:`SenseService.metrics`); the
stages it runs record their wall times into the process registry.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_S, MetricsRegistry
from repro.radar.config import RadarConfig
from repro.radar.processing import ZERO_PAD_FACTOR, range_keep_mask
from repro.radar.stages import frame_count
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.engine import ExecutionItem, ExecutionOutcome, execute_batch, radar_for
from repro.radar.tracker import TrackerConfig
from repro.serve.request import (
    BACKEND_VECTORIZED,
    BatchKey,
    SenseRequest,
    SenseResponse,
    TrackRequest,
    TrackResponse,
    TrackSnapshot,
    require_finite,
)
from repro.serve.session import SessionConfig, SessionStore
from repro.signal.spectral import range_axis

__all__ = ["SenseService", "ServiceConfig"]

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Scheduling knobs of the sensing service.

    Attributes:
        max_batch_size: flush a batch as soon as it holds this many
            requests.
        batch_window_ms: flush a batch once its first request has waited
            this long, even if it is not full. Zero disables coalescing.
        queue_depth: maximum requests admitted but not yet executing;
            submissions beyond this are rejected.
        default_deadline_s: deadline applied to requests that do not carry
            their own.
        workers: concurrent batch executions (asyncio workers, each backed
            by one thread-pool slot).
    """

    max_batch_size: int = 32
    batch_window_ms: float = 2.0
    queue_depth: int = 256
    default_deadline_s: float = 30.0
    workers: int = 2

    def __post_init__(self) -> None:
        require_finite(self, (f.name for f in dataclasses.fields(self)))
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.batch_window_ms < 0:
            raise ConfigurationError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive, "
                f"got {self.default_deadline_s}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )

    @property
    def batch_window_s(self) -> float:
        return self.batch_window_ms / 1000.0


@dataclasses.dataclass(eq=False)
class _Pending:
    """One admitted request waiting for (or in) execution."""

    request_id: int
    request: SenseRequest
    key: BatchKey
    future: asyncio.Future[SenseResponse]
    admitted_at: float
    deadline_at: float


ExecuteFn = Callable[[Sequence[ExecutionItem]], list[ExecutionOutcome]]


class SenseService:
    """Async micro-batching front of the FMCW sensing engine.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`
    explicitly. All methods must run on the event loop that ``start`` ran
    on; cross-thread callers should go through
    :class:`repro.serve.client.InProcessClient`.

    Args:
        config: scheduling knobs; ``None`` uses ``ServiceConfig()``.
        default_radar_config: radar configuration applied to requests that
            do not carry their own.
        execute: batch-execution callable, overridable for tests; defaults
            to :func:`repro.serve.engine.execute_batch`.
        session_config: retention policy of the tracking-session store
            (exposed as :attr:`sessions`); ``None`` uses
            ``SessionConfig()``.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 default_radar_config: RadarConfig | None = None,
                 execute: ExecuteFn | None = None,
                 session_config: SessionConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.default_radar_config = (
            default_radar_config if default_radar_config is not None
            else RadarConfig()
        )
        #: This service's own counters, gauges and histograms.
        self.metrics = MetricsRegistry()
        self._execute: ExecuteFn = execute if execute is not None else execute_batch
        self.sessions = SessionStore(session_config, metrics=self.metrics)
        self._batcher: MicroBatcher[BatchKey, _Pending] = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            window_s=self.config.batch_window_s,
        )
        self._running = False
        self._next_id = 0
        self._waiting = 0
        self._queue: asyncio.Queue[Batch[BatchKey, _Pending]] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._tasks: list[asyncio.Task[None]] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and spawn the flusher/worker tasks."""
        if self._running:
            return
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="rfprotect-serve",
        )
        self._running = True
        self._tasks = [asyncio.create_task(self._flush_loop(),
                                           name="serve-flusher")]
        self._tasks.extend(
            asyncio.create_task(self._worker_loop(), name=f"serve-worker-{i}")
            for i in range(self.config.workers)
        )

    async def stop(self) -> None:
        """Drain held batches, finish queued work, and shut down."""
        if not self._running:
            return
        self._running = False
        assert self._queue is not None and self._executor is not None
        loop = asyncio.get_running_loop()
        for batch in self._batcher.drain(loop.time()):
            self._queue.put_nowait(batch)
        await self._queue.join()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self._executor.shutdown(wait=True)
        self._executor = None
        self._queue = None

    async def __aenter__(self) -> SenseService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- admission ---------------------------------------------------------

    def batch_key_for(self, request: SenseRequest) -> BatchKey:
        """The request's compatibility key.

        An empty range crop or a sweep over the beat-cube budget
        (:func:`~repro.radar.stages.frame_count`) raises
        :class:`ConfigurationError` here, before the request is queued.
        """
        config = (request.config if request.config is not None
                  else self.default_radar_config)
        frame_count(config, request.duration)
        max_range = (request.max_range if request.max_range is not None
                     else radar_for(config).default_max_range(request.scene))
        range_keep_mask(range_axis(config.chirp,
                                   zero_pad_factor=ZERO_PAD_FACTOR),
                        min_range=config.min_range, max_range=max_range)
        return BatchKey(config=config, max_range=float(max_range))

    async def submit(self, request: SenseRequest) -> SenseResponse:
        """Admit one request and await its result.

        Raises:
            ServiceClosedError: the service is not running.
            ServiceOverloadedError: the admission queue is full.
            ConfigurationError: the request's range crop keeps no bin, or
                its sweep exceeds the beat-cube budget.
            DeadlineExceededError: the deadline expired before execution.
            ServeError subclasses from execution failures.
        """
        if not self._running or self._queue is None:
            self.metrics.inc("requests.rejected")
            raise ServiceClosedError(
                "sense request submitted to a service that is not running"
            )
        if self._waiting >= self.config.queue_depth:
            self.metrics.inc("requests.rejected")
            raise ServiceOverloadedError(
                f"admission queue is full "
                f"({self._waiting}/{self.config.queue_depth} waiting)"
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline_s = (request.deadline_s if request.deadline_s is not None
                      else self.config.default_deadline_s)
        pending = _Pending(
            request_id=self._next_id,
            request=request,
            key=self.batch_key_for(request),
            future=loop.create_future(),
            admitted_at=now,
            deadline_at=now + deadline_s,
        )
        self._next_id += 1
        self._set_waiting(self._waiting + 1)
        self.metrics.inc("requests.submitted")
        full = self._batcher.add(pending.key, pending, now)
        if full is not None:
            self._queue.put_nowait(full)
        return await pending.future

    def _set_waiting(self, value: int) -> None:
        self._waiting = value
        self.metrics.set_gauge("queue.depth", float(value))

    # -- tracking sessions -------------------------------------------------

    async def create_session(self, session_id: str | None = None, *,
                             tracker_config: TrackerConfig | None = None,
                             ) -> str:
        """Open a tracking session; returns its (possibly assigned) id."""
        loop = asyncio.get_running_loop()
        session = self.sessions.create(session_id, now=loop.time(),
                                       tracker_config=tracker_config)
        return session.session_id

    async def session_checkpoint(self, session_id: str) -> dict[str, object]:
        """The session's current tracker checkpoint (JSON-serializable).

        Takes the session lock: a snapshot cut mid-ingestion would mix
        pre- and post-frame tracker state into one blob.
        """
        session = self.sessions.peek(session_id)
        async with session.lock:
            return self.sessions.checkpoint_of(session_id)

    async def restore_session(self, session_id: str,
                              checkpoint: dict[str, object]) -> str:
        """Open a session primed from a previously exported checkpoint.

        The prime-then-restore swap runs under the session lock so a
        concurrent tracked request (or the eviction sweep) can never see
        the half-initialized tracker/checkpoint pair. A blob that fails to
        restore raises :class:`~repro.errors.TrackingError` and leaves no
        session behind.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        session = self.sessions.create(session_id, now=now)
        async with session.lock:
            try:
                session.checkpoint = dict(checkpoint)
                session.tracker = None
                # Checkpoint restore is CPU-bound on checkpoint size; for
                # the session-open path we take that cost on-loop
                # deliberately — it is a one-off, admission-rate-limited
                # operation.
                self.sessions.get(session_id, now=now)
            except BaseException:
                self.sessions.remove(session_id)
                raise
        return session.session_id

    async def end_session(self, session_id: str) -> dict[str, object]:
        """Close the session; returns its final checkpoint blob.

        Takes the session lock so the final snapshot cannot interleave
        with an in-flight tracked request's frame ingestion.
        """
        session = self.sessions.peek(session_id)
        async with session.lock:
            checkpoint = self.sessions.checkpoint_of(session_id)
            self.sessions.remove(session_id)
        return checkpoint

    async def submit_tracked(self, request: TrackRequest) -> TrackResponse:
        """Sense, then ingest the frames into the request's session tracker.

        The sensing half rides :meth:`submit` unchanged — same admission
        control, deadline handling, and :class:`BatchKey` coalescing as a
        stateless request (tracked and untracked requests share batches).
        Ingestion is serialized per session by the session lock, so
        concurrent tracked requests against one session apply their frames
        one request at a time.

        Raises everything :meth:`submit` raises, plus
        :class:`~repro.errors.SessionNotFoundError` for unknown (or
        already evicted-and-dropped) sessions.
        """
        loop = asyncio.get_running_loop()
        session = self.sessions.peek(request.session_id)
        async with session.lock:
            # Re-fetch under the lock: the eviction sweep may have parked
            # the session between peek and acquisition; get() restores it.
            # The restore path is CPU-bound (rebuilds Kalman state) and
            # runs on-loop deliberately: it is serialized per session by
            # this lock, bounded by checkpoint size, and moving it to the
            # executor would let the batcher interleave with a
            # half-restored tracker.
            session = self.sessions.get(
                request.session_id, now=loop.time()
            )
            tracker = session.tracker
            assert tracker is not None
            config = (request.config if request.config is not None
                      else self.default_radar_config)
            if request.start_time is not None:
                start_time = request.start_time
            else:
                last = tracker.last_frame_time
                start_time = (0.0 if last is None
                              else last + config.frame_interval)
            response = await self.submit(request.sense_request(start_time))
            sensed_at = loop.time()
            before = tracker.frames_ingested
            # The tracker locates the new frames with the sensing radar's
            # array, whether it stayed live or was restored from a parking.
            response.result.stream_tracks(tracker=tracker)
            frames_added = tracker.frames_ingested - before
            now = loop.time()
            self.sessions.record_frames(session, frames_added, now=now)
            self.metrics.inc("requests.tracked")
            tracked = TrackResponse(
                request_id=response.request_id,
                session_id=session.session_id,
                frames_added=frames_added,
                frames_total=tracker.frames_ingested,
                tracks=tuple(TrackSnapshot.from_track(track)
                             for track in tracker.tracks()),
                active_tracks=tuple(TrackSnapshot.from_track(track)
                                    for track in tracker.active_tracks),
                backend=response.backend,
                batch_size=response.batch_size,
                queued_s=response.queued_s,
                total_s=response.total_s + (now - sensed_at),
            )
        # Lock released: re-apply the live bound a concurrent burst may
        # have overshot (locked sessions are unparkable while in flight).
        self.sessions.rebalance()
        return tracked

    # -- scheduling --------------------------------------------------------

    async def _flush_loop(self) -> None:
        """Poll the batcher for window-expired groups; sweep idle sessions.

        The session sweep rides the flusher instead of owning a task: it
        is a bookkeeping pass measured in microseconds, and coupling it to
        the tick the service already pays keeps the task inventory flat.
        """
        tick = max(self.config.batch_window_s / 4.0, 0.001)
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        sweep_interval = self.sessions.config.sweep_interval_s
        next_sweep = loop.time() + sweep_interval
        while True:
            now = loop.time()
            for batch in self._batcher.due(now):
                self._queue.put_nowait(batch)
            if now >= next_sweep:
                evicted = self.sessions.evict_idle(now)
                if evicted:
                    self.metrics.inc("sessions.evicted", evicted)
                next_sweep = now + sweep_interval
            await asyncio.sleep(tick)

    async def _worker_loop(self) -> None:
        """Pull flushed batches and execute them off-loop."""
        assert self._queue is not None
        queue = self._queue
        loop = asyncio.get_running_loop()
        while True:
            batch = await queue.get()
            try:
                await self._run_batch(loop, batch)
            except Exception as error:
                # A worker must survive anything a batch throws at it, and
                # no caller may be left awaiting forever: fail whatever
                # futures the batch still holds open.
                logger.exception("serve worker failed on a batch")
                for pending in batch.items:
                    if not pending.future.done():
                        self.metrics.inc("requests.failed")
                        pending.future.set_exception(ServeError(
                            f"batch execution failed: {error}"
                        ))
            finally:
                queue.task_done()

    async def _run_batch(self, loop: asyncio.AbstractEventLoop,
                         batch: Batch[BatchKey, _Pending]) -> None:
        started_at = loop.time()
        live: list[_Pending] = []
        for pending in batch.items:
            if pending.future.done():
                # Cancelled by the caller while queued: drop silently.
                self._set_waiting(self._waiting - 1)
            elif pending.deadline_at <= started_at:
                self._set_waiting(self._waiting - 1)
                self.metrics.inc("requests.expired")
                pending.future.set_exception(DeadlineExceededError(
                    f"request {pending.request_id} expired after "
                    f"{started_at - pending.admitted_at:.3f}s in queue "
                    f"(deadline was "
                    f"{pending.deadline_at - pending.admitted_at:.3f}s)"
                ))
            else:
                live.append(pending)
        if not live:
            return
        for pending in live:
            self._set_waiting(self._waiting - 1)
        self.metrics.observe("batch.size", float(len(live)),
                             bounds=BATCH_SIZE_BUCKETS)

        items = [
            ExecutionItem(request_id=pending.request_id,
                          request=pending.request, key=pending.key)
            for pending in live
        ]
        assert self._executor is not None
        outcomes = await loop.run_in_executor(
            self._executor, self._execute, items
        )
        finished_at = loop.time()

        self.metrics.inc("batches.executed")
        by_id = {outcome.request_id: outcome for outcome in outcomes}
        isolated = sum(outcome.backend != BACKEND_VECTORIZED
                       for outcome in outcomes)
        if isolated:
            self.metrics.inc("batches.fallback")
            self.metrics.inc("requests.isolated", isolated)
        for pending in live:
            if pending.future.done():
                continue
            outcome = by_id.get(pending.request_id)
            if outcome is None or (outcome.result is None
                                   and outcome.error is None):
                self.metrics.inc("requests.failed")
                pending.future.set_exception(ServeError(
                    f"request {pending.request_id} produced no outcome"
                ))
            elif outcome.error is not None or outcome.result is None:
                self.metrics.inc("requests.failed")
                assert outcome.error is not None
                pending.future.set_exception(outcome.error)
            else:
                queued_s = started_at - pending.admitted_at
                total_s = finished_at - pending.admitted_at
                self.metrics.inc("requests.completed")
                self.metrics.observe("request.queued_s", queued_s,
                                     bounds=LATENCY_BUCKETS_S)
                self.metrics.observe("request.latency_s", total_s,
                                     bounds=LATENCY_BUCKETS_S)
                pending.future.set_result(SenseResponse(
                    request_id=pending.request_id,
                    result=outcome.result,
                    backend=outcome.backend,
                    batch_size=len(live),
                    queued_s=queued_s,
                    total_s=total_s,
                ))
