"""Long-lived tracking sessions: per-session tracker state with eviction.

The adversary the paper defends against tracks people *continuously* —
every new sweep updates the same tracks. This module gives the serving
stack that statefulness: a :class:`SessionStore` holds one
:class:`~repro.radar.tracker.StreamingTracker` per session ID, so a client
can sense a scene in many small requests and keep stable track identities
across all of them.

At "millions of users" scale most sessions are idle at any instant, so the
store is two-tiered:

- **Live** sessions hold a full tracker (numpy filter state, ready to
  ingest). At most ``max_live`` of them exist; beyond that the
  least-recently-active are *parked*.
- **Parked** sessions hold only the tracker's checkpoint blob (plain
  Python floats, JSON-serializable). Touching a parked session restores
  the tracker bit-for-bit — the checkpoint/restore round trip is exact by
  construction (:meth:`StreamingTracker.checkpoint`), so parking is
  invisible to tracking output. At most ``max_sessions`` sessions exist in
  total; beyond that the least-recently-active parked sessions are
  dropped.

The store never reads a clock: every operation takes ``now`` from the
caller (the service passes ``loop.time()``), which keeps the store
deterministic and directly testable. All mutating operations record into a
:class:`~repro.serve.metrics.MetricsRegistry` — ``sessions.live`` /
``sessions.parked`` gauges plus created/parked/restored/dropped/frame
counters.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any

from repro.config import (
    get_session_idle_s,
    get_session_max_live,
    get_session_max_sessions,
    get_session_sweep_s,
)
from repro.errors import ConfigurationError, SessionNotFoundError
from repro.radar.antenna import UniformLinearArray
from repro.radar.tracker import StreamingTracker, TrackerConfig
from repro.serve.metrics import MetricsRegistry

__all__ = ["SessionConfig", "SessionStore", "TrackingSession"]


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Retention policy of the session store.

    Attributes:
        max_live: sessions kept live (full tracker in memory) before the
            least-recently-active ones are parked to checkpoints.
        max_sessions: total sessions retained (live + parked) before the
            least-recently-active ones are dropped entirely.
        idle_timeout_s: inactivity span after which the eviction sweep
            parks a live session.
        sweep_interval_s: cadence of the service's eviction sweep.
    """

    max_live: int = 64
    max_sessions: int = 1024
    idle_timeout_s: float = 60.0
    sweep_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_live < 1:
            raise ConfigurationError(
                f"max_live must be >= 1, got {self.max_live}"
            )
        if self.max_sessions < self.max_live:
            raise ConfigurationError(
                f"max_sessions ({self.max_sessions}) must be >= max_live "
                f"({self.max_live})"
            )
        if self.idle_timeout_s <= 0:
            raise ConfigurationError(
                f"idle_timeout_s must be positive, got {self.idle_timeout_s}"
            )
        if self.sweep_interval_s <= 0:
            raise ConfigurationError(
                f"sweep_interval_s must be positive, "
                f"got {self.sweep_interval_s}"
            )

    @classmethod
    def from_env(cls) -> SessionConfig:
        """Build from the typed ``RF_PROTECT_SESSION_*`` registry knobs."""
        return cls(
            max_live=get_session_max_live(),
            max_sessions=get_session_max_sessions(),
            idle_timeout_s=get_session_idle_s(),
            sweep_interval_s=get_session_sweep_s(),
        )


@dataclasses.dataclass(eq=False)
class TrackingSession:
    """One session: a tracker (live) or its checkpoint blob (parked).

    Exactly one of ``tracker`` / ``checkpoint`` is set at any time. The
    ``lock`` serializes frame ingestion per session — concurrent tracked
    requests against the same session ingest one at a time, in completion
    order, so the tracker's frame-time monotonicity holds.
    """

    session_id: str
    created_at: float
    last_active: float
    tracker: StreamingTracker | None = None
    checkpoint: dict[str, Any] | None = None
    lock: asyncio.Lock = dataclasses.field(default_factory=asyncio.Lock)

    @property
    def live(self) -> bool:
        # Lock-free monitoring read: a single atomic attribute load whose
        # staleness only skews a gauge by one transition.
        return self.tracker is not None

    @property
    def frames_ingested(self) -> int:
        """Frames this session's tracker has consumed (parked or live).

        Lock-free monitoring read. Each state is snapshotted into a local
        before use so a concurrent park/restore cannot slip between the
        check and the dereference; the value may be one frame stale,
        which gauges and eviction accounting tolerate.
        """
        tracker = self.tracker
        if tracker is not None:
            return tracker.frames_ingested
        checkpoint = self.checkpoint
        assert checkpoint is not None
        return len(checkpoint["frame_times"])


class SessionStore:
    """Keyed tracker state with LRU parking and bounded retention.

    Not thread-safe by itself: all calls must come from one event loop (or
    one thread), the same discipline the service applies to its own state.
    Per-session *ingestion* concurrency is what the session locks are for.
    """

    def __init__(self, config: SessionConfig | None = None, *,
                 default_tracker_config: TrackerConfig | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.config = config if config is not None else SessionConfig.from_env()
        self.default_tracker_config = default_tracker_config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sessions: dict[str, TrackingSession] = {}
        self._next_id = 0
        self._update_gauges()

    # -- inventory ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def ids(self) -> list[str]:
        """All retained session IDs, sorted."""
        return sorted(self._sessions)

    @property
    def live_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.live)

    @property
    def parked_count(self) -> int:
        return sum(1 for s in self._sessions.values() if not s.live)

    def _update_gauges(self) -> None:
        self.metrics.set_gauge("sessions.live", float(self.live_count))
        self.metrics.set_gauge("sessions.parked", float(self.parked_count))

    # -- lifecycle ---------------------------------------------------------

    def create(self, session_id: str | None = None, *, now: float,
               tracker_config: TrackerConfig | None = None,
               array: UniformLinearArray | None = None) -> TrackingSession:
        """Open a new session with a fresh tracker; returns it live.

        ``session_id=None`` allocates ``s-<n>`` ids; explicit ids must be
        unused. Creating beyond ``max_sessions`` drops the
        least-recently-active session to make room; beyond ``max_live``,
        the least-recently-active live session is parked.
        """
        if session_id is None:
            session_id = f"s-{self._next_id}"
            self._next_id += 1
        elif session_id in self._sessions:
            raise ConfigurationError(
                f"session {session_id!r} already exists"
            )
        config = (tracker_config if tracker_config is not None
                  else self.default_tracker_config)
        session = TrackingSession(
            session_id=session_id,
            created_at=now,
            last_active=now,
            tracker=StreamingTracker(array, config),
        )
        self._sessions[session_id] = session
        self.metrics.inc("sessions.created")
        self._enforce_bounds(exempt=session_id)
        self._update_gauges()
        return session

    def get(self, session_id: str, *, now: float,
            array: UniformLinearArray | None = None) -> TrackingSession:
        """The session, live — restoring its tracker from checkpoint if parked.

        Touches the session's activity clock, so getting a session also
        defers its eviction.
        """
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(
                f"unknown tracking session {session_id!r} (evicted or "
                f"never created)"
            )
        session.last_active = now
        if session.tracker is None:
            assert session.checkpoint is not None
            session.tracker = StreamingTracker.from_checkpoint(
                session.checkpoint, array
            )
            session.checkpoint = None
            self.metrics.inc("sessions.restored")
            self._enforce_bounds(exempt=session_id)
        elif array is not None and session.tracker.array is None:
            session.tracker.array = array
        self._update_gauges()
        return session

    def peek(self, session_id: str) -> TrackingSession:
        """The session as stored — no restore, no activity touch."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(
                f"unknown tracking session {session_id!r}"
            )
        return session

    def checkpoint_of(self, session_id: str) -> dict[str, Any]:
        """The session's current checkpoint blob (computed live if needed)."""
        session = self.peek(session_id)
        if session.tracker is not None:
            return session.tracker.checkpoint()
        assert session.checkpoint is not None
        return session.checkpoint

    def park(self, session_id: str) -> None:
        """Swap the session's live tracker for its checkpoint blob."""
        session = self.peek(session_id)
        if session.tracker is None:
            return
        session.checkpoint = session.tracker.checkpoint()
        session.tracker = None
        self.metrics.inc("sessions.parked")
        self._update_gauges()

    def remove(self, session_id: str) -> None:
        """Forget the session entirely."""
        if self._sessions.pop(session_id, None) is not None:
            self.metrics.inc("sessions.removed")
            self._update_gauges()

    def record_frames(self, session: TrackingSession, frames: int, *,
                      now: float) -> None:
        """Account ``frames`` newly ingested frames to the session."""
        session.last_active = now
        self.metrics.inc("sessions.frames", frames)

    # -- eviction ----------------------------------------------------------

    def evict_idle(self, now: float) -> int:
        """Park every live session idle for ``idle_timeout_s``; returns count.

        The service's flusher runs this every ``sweep_interval_s``.
        Sessions whose ingestion lock is currently held are skipped — a
        request is mid-flight on them, which is the opposite of idle.
        """
        parked = 0
        for session in list(self._sessions.values()):
            # Lock-free read of last_active: the sweep only uses it as an
            # idleness heuristic, and a stale value merely defers parking
            # to the next sweep (the locked() guard above already excludes
            # sessions with ingestion in flight).
            if (session.live and not session.lock.locked()
                    and now - session.last_active
                    >= self.config.idle_timeout_s):
                self.park(session.session_id)
                parked += 1
        return parked

    def rebalance(self) -> None:
        """Re-apply the retention bounds outside a mutation event.

        A session mid-ingestion holds its lock and cannot be parked, so a
        burst of concurrent tracked requests legitimately overshoots
        ``max_live`` while in flight. The service calls this as each
        tracked request finishes (lock released), parking back down so the
        overshoot never outlives the burst that caused it.
        """
        self._enforce_bounds()

    def _enforce_bounds(self, *, exempt: str | None = None) -> None:
        """Apply the live and total retention bounds, LRU-first.

        ``exempt`` (the session being created/restored) is never parked or
        dropped — bounds are enforced against everything else. Parking
        runs first, so a session it parks can be dropped in the same pass;
        otherwise a store with ``max_live == max_sessions`` and every
        session live would keep one session too many.
        """
        by_idle = sorted(
            (s for s in self._sessions.values() if s.session_id != exempt),
            key=lambda s: s.last_active,
        )
        live_overflow = self.live_count - self.config.max_live
        if live_overflow > 0:
            for session in [s for s in by_idle
                            if s.live and not s.lock.locked()][:live_overflow]:
                self.park(session.session_id)
        overflow = len(self._sessions) - self.config.max_sessions
        for session in [s for s in by_idle if not s.live][:max(overflow, 0)]:
            self._sessions.pop(session.session_id)
            self.metrics.inc("sessions.dropped")
        self._update_gauges()
