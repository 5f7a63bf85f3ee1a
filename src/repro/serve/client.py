"""In-process client: synchronous callers -> the asyncio sensing service.

:class:`InProcessClient` owns a private event loop on a daemon thread,
starts a :class:`~repro.serve.service.SenseService` on it, and bridges
every call with ``run_coroutine_threadsafe``. Synchronous code (tests, the
CLI, benchmarks, notebooks) gets the full serving stack — micro-batching,
admission control, deadlines, metrics — without touching asyncio:

    with InProcessClient() as client:
        response = client.sense(SenseRequest(scene=scene, duration=2.0))

Concurrency without threads on the caller's side: :meth:`submit` returns a
``concurrent.futures.Future`` immediately, so issuing many requests
back-to-back lets the service coalesce them into shared batches
(:meth:`sense_many` is that pattern packaged).
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Sequence
from concurrent.futures import Future
from types import TracebackType
from typing import Any, Coroutine

from repro.radar.config import RadarConfig
from repro.radar.tracker import TrackerConfig
from repro.serve.request import (
    SenseRequest,
    SenseResponse,
    TrackRequest,
    TrackResponse,
)
from repro.serve.service import SenseService, ServiceConfig

__all__ = ["InProcessClient"]


class InProcessClient:
    """A synchronous facade over :class:`SenseService` on a private loop."""

    def __init__(self, config: ServiceConfig | None = None, *,
                 default_radar_config: RadarConfig | None = None) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="rfprotect-serve-loop",
            daemon=True,
        )
        self._thread.start()
        self._service = SenseService(
            config, default_radar_config=default_radar_config)
        self._closed = False
        self._call(self._service.start())

    def _call(self, coro: Coroutine[Any, Any, Any]) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    @property
    def service(self) -> SenseService:
        return self._service

    def submit(self, request: SenseRequest) -> Future[SenseResponse]:
        """Submit without waiting; the future resolves off-thread.

        Submitting many requests before collecting any result is what lets
        the scheduler fill batches.
        """
        return asyncio.run_coroutine_threadsafe(
            self._service.submit(request), self._loop
        )

    def sense(self, request: SenseRequest) -> SenseResponse:
        """Submit one request and block for its response."""
        return self.submit(request).result()

    def sense_many(self, requests: Sequence[SenseRequest]
                   ) -> list[SenseResponse]:
        """Submit a burst of requests, then collect responses in order.

        The whole burst crosses into the event loop in a single hop and the
        submits are scheduled back to back, so the scheduler sees all of
        them inside one coalescing window. Responses come back in request
        order; the first per-request failure (e.g. admission rejection) is
        re-raised after the burst settles.
        """

        async def _submit_all() -> list[SenseResponse | BaseException]:
            return await asyncio.gather(
                *(self._service.submit(request) for request in requests),
                return_exceptions=True,
            )

        results = self._call(_submit_all())
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    def create_session(self, session_id: str | None = None, *,
                       tracker_config: TrackerConfig | None = None) -> str:
        """Open a tracking session; returns its id."""
        result: str = self._call(self._service.create_session(
            session_id, tracker_config=tracker_config
        ))
        return result

    def track(self, request: TrackRequest) -> TrackResponse:
        """Submit one tracked (session) request and block for its response."""
        return self.submit_tracked(request).result()

    def submit_tracked(self, request: TrackRequest
                       ) -> Future[TrackResponse]:
        """Submit a tracked request without waiting."""
        return asyncio.run_coroutine_threadsafe(
            self._service.submit_tracked(request), self._loop
        )

    def session_checkpoint(self, session_id: str) -> dict[str, object]:
        """Export the session's current tracker checkpoint."""
        result: dict[str, object] = self._call(
            self._service.session_checkpoint(session_id)
        )
        return result

    def restore_session(self, session_id: str,
                        checkpoint: dict[str, object]) -> str:
        """Open a session primed from an exported checkpoint."""
        result: str = self._call(
            self._service.restore_session(session_id, checkpoint)
        )
        return result

    def end_session(self, session_id: str) -> dict[str, object]:
        """Close a session; returns its final checkpoint."""
        result: dict[str, object] = self._call(
            self._service.end_session(session_id)
        )
        return result

    def metrics_snapshot(self) -> dict[str, object]:
        """Point-in-time JSON-serializable view of the service telemetry."""
        return self._service.metrics.snapshot()

    def close(self) -> None:
        """Stop the service, the loop, and the loop thread."""
        if self._closed:
            return
        self._closed = True
        self._call(self._service.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    def __enter__(self) -> InProcessClient:
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()
