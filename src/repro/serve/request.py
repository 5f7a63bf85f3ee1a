"""Request/response shapes of the sensing service.

A :class:`SenseRequest` is everything one caller wants sensed: a scene, the
radar configuration to sense it with, a sensing span, a seed (the *only*
source of randomness — the service never draws from hidden state), and an
optional per-request deadline. Requests whose radar configuration and range
crop agree share a :class:`BatchKey`; the scheduler only coalesces requests
with equal keys, because only those can ride the same vectorized
synthesis/receive passes (same chirp grid, same antenna count, same kept
range bins).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable

from repro.errors import ConfigurationError
from repro.radar.config import RadarConfig
from repro.radar.radar import SensingResult
from repro.radar.scene import Scene
from repro.radar.tracker import Track

__all__ = [
    "BACKEND_ISOLATED",
    "BACKEND_VECTORIZED",
    "BatchKey",
    "SenseRequest",
    "SenseResponse",
    "TrackRequest",
    "TrackResponse",
    "TrackSnapshot",
    "require_finite",
]


#: How a served request was ultimately executed: in its batch, or retried
#: alone after the batch raised.
BACKEND_VECTORIZED = "vectorized"
BACKEND_ISOLATED = "isolated"


def require_finite(owner: object, names: Iterable[str]) -> None:
    """Raise :class:`ConfigurationError` naming the first non-finite field.

    ``names`` are numeric attributes of ``owner``; ``None`` passes.
    """
    for name in names:
        value = getattr(owner, name)
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclasses.dataclass(frozen=True)
class BatchKey:
    """The compatibility class of a request: what may share its batch.

    Two requests with equal keys produce beat cubes on the same sample grid
    with the same antenna count and crop to the same range bins, so their
    frames can be stacked through one sense pass.
    ``RadarConfig`` is a frozen dataclass of floats/tuples, so value
    equality (not object identity) defines the grouping.
    """

    config: RadarConfig
    max_range: float


@dataclasses.dataclass(frozen=True)
class SenseRequest:
    """One sensing job submitted to the service.

    Attributes:
        scene: the room and its entities to sense.
        duration: sensing span in seconds (must be positive).
        seed: seed of the per-request ``np.random.Generator``; fixed seed
            in, bitwise-identical :class:`SensingResult` out, regardless of
            arrival order or batch grouping.
        config: radar configuration; ``None`` uses the service's default.
        start_time: scene time of the first frame.
        max_range: optional far crop of the range axis; ``None`` derives
            the room-diagonal default exactly like ``FmcwRadar.sense``.
        deadline_s: per-request deadline budget in seconds from admission;
            ``None`` uses the service default. Work still queued when the
            deadline passes is cancelled, never executed.
    """

    scene: Scene
    duration: float
    seed: int = 0
    config: RadarConfig | None = None
    start_time: float = 0.0
    max_range: float | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        _validate_span(self)


def _validate_span(request: SenseRequest | TrackRequest) -> None:
    """Reject a request's non-finite or non-positive sensing parameters."""
    require_finite(request, ("duration", "start_time", "max_range",
                             "deadline_s"))
    if request.duration <= 0:
        raise ConfigurationError(
            f"sense duration must be positive, got {request.duration}"
        )
    if request.max_range is not None and request.max_range <= 0:
        raise ConfigurationError(
            f"max_range must be positive, got {request.max_range}"
        )
    if request.deadline_s is not None and request.deadline_s <= 0:
        raise ConfigurationError(
            f"deadline_s must be positive, got {request.deadline_s}"
        )


@dataclasses.dataclass(frozen=True)
class SenseResponse:
    """A completed request: the sensing result plus serving telemetry.

    Attributes:
        request_id: admission-ordered id assigned by the service.
        result: the :class:`SensingResult`, bitwise identical to a direct
            ``FmcwRadar.sense`` call with the same request parameters.
        backend: ``"vectorized"`` for the batch path or ``"isolated"``
            when the request was retried alone (on the same kernels) after
            its batch failed.
        batch_size: how many requests shared this request's batch.
        queued_s: admission -> execution-start wait, seconds.
        total_s: admission -> completion latency, seconds.
    """

    request_id: int
    result: SensingResult
    backend: str
    batch_size: int
    queued_s: float
    total_s: float


@dataclasses.dataclass(frozen=True)
class TrackRequest:
    """One incremental frame-ingestion job against a tracking session.

    The sensing half (scene, duration, seed, config, max_range) is exactly
    a :class:`SenseRequest` — tracked requests ride the same admission,
    :class:`BatchKey` coalescing, and batch execution as stateless ones.
    What a session adds is *continuity*: the sensed frames are ingested
    into the session's persistent :class:`~repro.radar.tracker
    .StreamingTracker`, so track identities survive across requests.

    Attributes:
        session_id: the session whose tracker ingests the sensed frames.
        scene: the room and its entities to sense.
        duration: sensing span in seconds (must be positive).
        seed: seed of the per-request generator (same determinism contract
            as :class:`SenseRequest`).
        config: radar configuration; ``None`` uses the service's default.
        start_time: scene time of the first frame; ``None`` continues one
            frame interval after the session's last ingested frame (0.0
            for a fresh session).
        max_range: optional far crop of the range axis.
        deadline_s: per-request deadline budget, as for sense requests.
    """

    session_id: str
    scene: Scene
    duration: float
    seed: int = 0
    config: RadarConfig | None = None
    start_time: float | None = None
    max_range: float | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ConfigurationError("session_id must be non-empty")
        _validate_span(self)

    def sense_request(self, start_time: float) -> SenseRequest:
        """This request's sensing half, its first frame at ``start_time``."""
        return SenseRequest(scene=self.scene, duration=self.duration,
                            seed=self.seed, config=self.config,
                            start_time=start_time, max_range=self.max_range,
                            deadline_s=self.deadline_s)


@dataclasses.dataclass(frozen=True)
class TrackSnapshot:
    """The wire-shaped view of one track at response time.

    A frozen value object (plain floats/ints, no live filter state) so
    responses can outlive the session, be compared across requests, and
    serialize cleanly.
    """

    track_id: int
    start_time: float
    last_time: float
    num_points: int
    age: int
    misses: int
    total_misses: int
    position: tuple[float, float]
    velocity: tuple[float, float]
    total_power: float

    @classmethod
    def from_track(cls, track: Track) -> TrackSnapshot:
        last = track.raw_positions[-1]
        velocity = track.filter.velocity
        return cls(
            track_id=track.track_id,
            start_time=float(track.times[0]),
            last_time=float(track.times[-1]),
            num_points=len(track),
            age=track.age,
            misses=track.misses,
            total_misses=track.total_misses,
            position=(float(last[0]), float(last[1])),
            velocity=(float(velocity[0]), float(velocity[1])),
            total_power=track.total_power,
        )


@dataclasses.dataclass(frozen=True)
class TrackResponse:
    """A completed tracked request: session-level tracking state + telemetry.

    Attributes:
        request_id: admission-ordered id of the underlying sense request.
        session_id: the session the frames were ingested into.
        frames_added: frames this request contributed.
        frames_total: frames the session's tracker has consumed in total.
        tracks: the finalized (quality-filtered) view, strongest first.
        active_tracks: every track still being followed, tentative ones
            included, in spawn order.
        backend: execution backend of the sensing batch.
        batch_size: how many requests shared the sensing batch.
        queued_s: admission -> execution-start wait, seconds.
        total_s: admission -> completion latency (ingestion included).
    """

    request_id: int
    session_id: str
    frames_added: int
    frames_total: int
    tracks: tuple[TrackSnapshot, ...]
    active_tracks: tuple[TrackSnapshot, ...]
    backend: str
    batch_size: int
    queued_s: float
    total_s: float
