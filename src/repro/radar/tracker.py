"""Trajectory extraction: peaks -> tracks via gating + Kalman filtering.

Implements the eavesdropper algorithms of Sec. 2/9.1: per-frame peak
detection on the range-angle map, detection-to-track association into
tracks, a constant-velocity Kalman filter per track, and the time
smoothing / peak rejection the paper applies before reporting
trajectories.

The module is built around :class:`StreamingTracker`, an *incremental*
multi-target tracker: it ingests one :class:`RangeAngleProfile` (or one
pre-detected frame) at a time, maintains persistent track identities
across frames, coasts through occlusions/missed frames on the Kalman
prediction, and can checkpoint/restore its complete state as a
JSON-serializable blob (the substrate of the serving layer's long-lived
tracking sessions, :mod:`repro.serve.session`). The batch entry points —
a sensing result's ``tracks()`` and :func:`track_detections` — are thin
loops over the streaming core, so ``stream(frames)`` and
``batch(frames)`` are the same computation by construction — a property
pinned track-for-track by ``tests/test_property_tracker.py``.

Detection-to-track association solves a gated minimum-cost assignment
with `scipy.optimize.linear_sum_assignment`. All candidate orderings are
canonicalized, so tracks — including their persistent IDs — are
independent of detection input order.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.errors import ConfigurationError, TrackingError
from repro.obs import process_metrics
from repro.radar.antenna import UniformLinearArray
from repro.radar.processing import RangeAngleProfile
from repro.signal.detection import selection_median
from repro.signal.filtering import smooth_trajectory
from repro.types import Trajectory

__all__ = [
    "KalmanTracker2D",
    "StreamingTracker",
    "Track",
    "TrackerConfig",
    "track_detections",
]

#: One detection: a Cartesian ``(x, y)`` position and its peak power.
Detection = tuple[np.ndarray, float]


#: Read-only Kalman constants, built once: the identities and the
#: position observation matrix ``H`` (same operands, same bits).
_EYE2, _EYE4, _OBSERVATION = np.eye(2), np.eye(4), np.eye(2, 4)
for _constant in (_EYE2, _EYE4, _OBSERVATION):
    _constant.flags.writeable = False


class KalmanTracker2D:
    """Constant-velocity Kalman filter over state ``[x, y, vx, vy]``."""

    def __init__(self, initial_position: np.ndarray, *,
                 position_variance: float = 0.25,
                 velocity_variance: float = 1.0,
                 process_noise: float = 0.5,
                 measurement_noise: float = 0.05) -> None:
        position = np.asarray(initial_position, dtype=float)
        if position.shape != (2,):
            raise ConfigurationError("initial position must be (x, y)")
        variances = (position_variance, velocity_variance,
                     process_noise, measurement_noise)
        if not all(math.isfinite(v) and v > 0 for v in variances):
            raise ConfigurationError(
                f"Kalman variances must be finite and positive, got "
                f"{variances}")
        self.state = np.array([position[0], position[1], 0.0, 0.0])
        self.covariance = np.diag([position_variance, position_variance,
                                   velocity_variance, velocity_variance])
        self.process_noise = process_noise
        self.measurement_noise = measurement_noise

    @property
    def position(self) -> np.ndarray:
        """Current position estimate (x, y)."""
        return self.state[:2].copy()

    @property
    def velocity(self) -> np.ndarray:
        """Current velocity estimate (vx, vy)."""
        return self.state[2:].copy()

    def predict(self, dt: float) -> np.ndarray:
        """Advance the state by ``dt`` seconds; returns the predicted position."""
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        transition = _EYE4.copy()
        transition[0, 2] = transition[1, 3] = dt
        # White-acceleration process noise (discretized).
        q = self.process_noise
        dt2, dt3, dt4 = dt ** 2, dt ** 3, dt ** 4
        noise = q * np.array([
            [dt4 / 4, 0, dt3 / 2, 0],
            [0, dt4 / 4, 0, dt3 / 2],
            [dt3 / 2, 0, dt2, 0],
            [0, dt3 / 2, 0, dt2],
        ])
        self.state = transition @ self.state
        self.covariance = transition @ self.covariance @ transition.T + noise
        return self.position

    def update(self, measurement: np.ndarray) -> np.ndarray:
        """Fuse a position measurement; returns the corrected position."""
        z = np.asarray(measurement, dtype=float)
        if z.shape != (2,):
            raise ConfigurationError("measurement must be (x, y)")
        innovation = z - _OBSERVATION @ self.state
        innovation_cov = (_OBSERVATION @ self.covariance @ _OBSERVATION.T
                          + self.measurement_noise * _EYE2)
        gain = self.covariance @ _OBSERVATION.T @ np.linalg.inv(innovation_cov)
        self.state = self.state + gain @ innovation
        self.covariance = (_EYE4 - gain @ _OBSERVATION) @ self.covariance
        return self.position

    def to_state(self) -> dict[str, Any]:
        """Complete filter state as a JSON-serializable dict."""
        return {
            "state": [float(v) for v in self.state],
            "covariance": [[float(v) for v in row]
                           for row in self.covariance],
            "process_noise": float(self.process_noise),
            "measurement_noise": float(self.measurement_noise),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> KalmanTracker2D:
        """Rebuild a filter bit-for-bit from :meth:`to_state` output.

        Raises:
            ValueError: unless the state is a finite ``(4,)`` vector and
                the covariance a finite ``(4, 4)`` matrix.
            ConfigurationError: unless both noise variances are finite
                and positive.
        """
        vector = np.asarray(state["state"], dtype=float)
        covariance = np.asarray(state["covariance"], dtype=float)
        if vector.shape != (4,) or covariance.shape != (4, 4):
            raise ValueError(
                f"filter state must be (4,) and covariance (4, 4), got "
                f"{vector.shape} and {covariance.shape}"
            )
        if not (np.isfinite(vector).all() and np.isfinite(covariance).all()):
            raise ValueError("filter state and covariance must be finite")
        filter_ = cls(
            vector[:2],
            process_noise=float(state["process_noise"]),
            measurement_noise=float(state["measurement_noise"]),
        )
        filter_.state = vector
        filter_.covariance = covariance
        return filter_


@dataclasses.dataclass(frozen=True)
class TrackerConfig:
    """Tuning of the track-extraction stage.

    Attributes:
        threshold_factor: detection threshold as a multiple of the map's
            median power (a robust noise-floor proxy).
        gate_distance: max association distance between a track's prediction
            and a detection, meters.
        max_misses: consecutive frames a track survives without a detection.
        min_track_points: tracks shorter than this are discarded as noise.
        max_targets: peaks kept per frame.
        smoothing_window: moving-window size of the final smoothing pass.
        max_jump: outlier-rejection jump bound for the smoother, meters.
        min_hit_ratio: minimum detections-per-spanned-frame consistency.
        min_relative_power_db: power floor relative to the strongest
            concurrent track.
        cluster_radius: blob-merging radius for per-frame detections.
    """

    threshold_factor: float = 25.0
    gate_distance: float = 1.0
    max_misses: int = 5
    min_track_points: int = 8
    max_targets: int = 6
    smoothing_window: int = 7
    max_jump: float = 1.0
    min_hit_ratio: float = 0.55
    min_relative_power_db: float = 18.0
    cluster_radius: float = 1.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{field.name} must be finite, got {value}")
        if self.threshold_factor <= 0:
            raise ConfigurationError("threshold_factor must be positive")
        if self.gate_distance <= 0:
            raise ConfigurationError("gate_distance must be positive")
        if self.max_misses < 0:
            raise ConfigurationError("max_misses must be >= 0")
        if self.min_track_points < 2:
            raise ConfigurationError("min_track_points must be >= 2")
        if self.max_targets < 1:
            raise ConfigurationError("max_targets must be >= 1")
        if self.smoothing_window < 1:
            raise ConfigurationError("smoothing_window must be >= 1")
        if self.max_jump <= 0:
            raise ConfigurationError("max_jump must be positive")
        if not 0 < self.min_hit_ratio <= 1:
            raise ConfigurationError("min_hit_ratio must be in (0, 1]")
        if self.min_relative_power_db <= 0:
            raise ConfigurationError("min_relative_power_db must be positive")
        if self.cluster_radius < 0:
            raise ConfigurationError("cluster_radius must be >= 0")

    def to_state(self) -> dict[str, Any]:
        """The configuration as a JSON-serializable dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> TrackerConfig:
        """Rebuild (and re-validate) a config from :meth:`to_state` output."""
        return cls(**state)


class Track:
    """One tracked target: timestamps, positions, and detection powers.

    A track carries a persistent ``track_id`` assigned by the tracker at
    spawn time and stable for the track's whole life — the identity the
    adversary model cares about. ``age`` counts frames the track has
    existed (hits and misses both), ``misses`` counts *consecutive*
    missed frames (reset on every hit), ``total_misses`` counts all of
    them.
    """

    def __init__(self, time: float, position: np.ndarray,
                 config: TrackerConfig, power: float = 0.0,
                 track_id: int = 0) -> None:
        self._config = config
        self.track_id = track_id
        self.times: list[float] = [time]
        self.raw_positions: list[np.ndarray] = [np.asarray(position, dtype=float)]
        self.powers: list[float] = [power]
        self.filter = KalmanTracker2D(position)
        self.misses = 0
        self.total_misses = 0
        self.age = 1
        self._last_time = time

    def __len__(self) -> int:
        return len(self.times)

    def predict(self, time: float) -> np.ndarray:
        """Predicted position at ``time`` without consuming the prediction."""
        dt = max(time - self._last_time, 1e-6)
        transition = _EYE4.copy()
        transition[0, 2] = transition[1, 3] = dt
        return (transition @ self.filter.state)[:2]

    def add(self, time: float, position: np.ndarray, power: float = 0.0) -> None:
        """Fuse a new detection into the track."""
        dt = max(time - self._last_time, 1e-6)
        self.filter.predict(dt)
        filtered = self.filter.update(np.asarray(position, dtype=float))
        self.times.append(time)
        self.raw_positions.append(filtered)
        self.powers.append(power)
        self.misses = 0
        self.age += 1
        self._last_time = time

    @property
    def total_power(self) -> float:
        """Accumulated detection power — the track-ranking score.

        Beamforming-sidelobe ghost tracks shadow a real target frame for
        frame, so they can match it in *length*; they cannot match it in
        power. Ranking by accumulated power keeps the real target first.
        """
        return float(sum(self.powers))

    def mark_missed(self) -> None:
        """Record a frame with no associated detection (occlusion/dropout).

        The track is not updated — it coasts on the Kalman prediction and
        recovers if a detection re-enters its gate before ``max_misses``
        consecutive frames elapse.
        """
        self.misses += 1
        self.total_misses += 1
        self.age += 1

    @property
    def alive(self) -> bool:
        return self.misses <= self._config.max_misses

    def to_trajectory(self, *, smooth: bool = True) -> Trajectory:
        """Resample to uniform dt and apply the paper's smoothing stage."""
        if len(self) < 2:
            raise TrackingError("track too short to form a trajectory")
        times = np.asarray(self.times)
        positions = np.vstack(self.raw_positions)
        dt = float(np.median(np.diff(times)))
        uniform_times = np.arange(times[0], times[-1] + dt / 2, dt)
        xs = np.interp(uniform_times, times, positions[:, 0])
        ys = np.interp(uniform_times, times, positions[:, 1])
        points = np.column_stack([xs, ys])
        if smooth and points.shape[0] >= 3:
            points = smooth_trajectory(points,
                                       window=self._config.smoothing_window,
                                       max_jump=self._config.max_jump)
        return Trajectory(points, dt=dt)

    def to_state(self) -> dict[str, Any]:
        """Complete track state as a JSON-serializable dict."""
        return {
            "track_id": int(self.track_id),
            "times": [float(t) for t in self.times],
            "positions": [[float(p[0]), float(p[1])]
                          for p in self.raw_positions],
            "powers": [float(p) for p in self.powers],
            "filter": self.filter.to_state(),
            "misses": int(self.misses),
            "total_misses": int(self.total_misses),
            "age": int(self.age),
            "last_time": float(self._last_time),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any],
                   config: TrackerConfig) -> Track:
        """Rebuild a track bit-for-bit from :meth:`to_state` output.

        Raises:
            ValueError: for times out of order or a malformed filter.
            ConfigurationError: for a filter variance the filter rejects.
        """
        track = cls(state["times"][0],
                    np.asarray(state["positions"][0], dtype=float),
                    config, power=state["powers"][0],
                    track_id=int(state["track_id"]))
        track.times = _in_time_order([float(t) for t in state["times"]],
                                     "track times")
        track.raw_positions = [np.asarray(p, dtype=float)
                               for p in state["positions"]]
        track.powers = [float(p) for p in state["powers"]]
        track.filter = KalmanTracker2D.from_state(state["filter"])
        track.misses = int(state["misses"])
        track.total_misses = int(state["total_misses"])
        track.age = int(state["age"])
        track._last_time = float(state["last_time"])
        return track


def _in_time_order(times: list[float], name: str) -> list[float]:
    """``times`` itself, if no entry is less than the one before it.

    The order :meth:`StreamingTracker.ingest_detections` enforces, so
    every checkpoint a tracker writes passes.
    """
    if any(map(operator.lt, times[1:], times)):
        raise ValueError(f"{name} must be non-decreasing")
    return times


# --------------------------------------------------------------------------
# Association
# --------------------------------------------------------------------------


def _associate(predictions: np.ndarray,
                         detections: list[Detection],
                         gate_distance: float) -> list[tuple[int, int]]:
    """Gated global minimum-cost association: ``(track, detection)`` pairs.

    Out-of-gate pairs enter the cost matrix at a cost so large that any
    solution is first ranked by how few of them it uses, then by summed
    in-gate distance; they are stripped from the returned matching.
    """
    num_tracks = predictions.shape[0]
    num_detections = len(detections)
    if num_tracks == 0 or num_detections == 0:
        return []
    positions = np.vstack([position for position, _power in detections])
    distances = np.linalg.norm(
        predictions[:, None, :] - positions[None, :, :], axis=2
    )
    infeasible = distances > gate_distance
    # Any assignment using k out-of-gate pairs costs more than any using
    # k-1: the penalty exceeds the largest possible sum of in-gate costs.
    penalty = (min(num_tracks, num_detections) + 1.0) * (gate_distance + 1.0)
    cost = np.where(infeasible, penalty, distances)
    rows, cols = linear_sum_assignment(cost)
    return [(int(ti), int(di)) for ti, di in zip(rows, cols)
            if not infeasible[ti, di]]


# --------------------------------------------------------------------------
# The incremental multi-target tracker
# --------------------------------------------------------------------------


class StreamingTracker:
    """Incremental multi-target tracker over range-angle frames.

    Feed frames one at a time — :meth:`ingest` for a
    :class:`RangeAngleProfile` (runs the detection front end first),
    :meth:`ingest_detections` for pre-detected ``(position, power)``
    frames — and read the current result at any point via :meth:`tracks`
    (finalized, quality-filtered) or :attr:`active_tracks` (everything
    still being followed). Streaming a sweep frame-by-frame produces
    exactly the tracks of batch-processing it: a sensing result's
    ``tracks()`` is this class driven in a loop.

    The complete tracker state round-trips through
    :meth:`checkpoint`/:meth:`from_checkpoint` as a JSON-serializable
    blob — how the serving layer parks idle sessions without losing
    track identities.
    """

    #: Checkpoint schema version (bump on incompatible state changes).
    CHECKPOINT_VERSION = 2

    #: Exactly the payload keys :meth:`checkpoint` writes and
    #: :meth:`from_checkpoint` accepts: a blob with any key missing or
    #: unexpected is rejected, so editing the payload forces an edit here
    #: — and with it a CHECKPOINT_VERSION bump for any incompatible change.
    CHECKPOINT_FIELDS = (
        "version",
        "config",
        "next_track_id",
        "frame_times",
        "active",
        "finished",
    )

    def __init__(self, array: UniformLinearArray | None = None,
                 config: TrackerConfig | None = None) -> None:
        self.array = array
        self.config = config if config is not None else TrackerConfig()
        self._active: list[Track] = []
        self._finished: list[Track] = []
        self._frame_times: list[float] = []
        self._next_track_id = 1

    # -- state views -------------------------------------------------------

    @property
    def active_tracks(self) -> list[Track]:
        """Tracks still being followed (any length, including tentative)."""
        return list(self._active)

    @property
    def frames_ingested(self) -> int:
        """How many frames this tracker has consumed."""
        return len(self._frame_times)

    @property
    def last_frame_time(self) -> float | None:
        """Capture time of the most recent frame, or ``None`` before any."""
        return self._frame_times[-1] if self._frame_times else None

    # -- ingestion ---------------------------------------------------------

    def ingest(self, profile: RangeAngleProfile) -> None:
        """Consume one range-angle frame: detect, cluster, associate, update.

        A map smaller than 3x3 has no peaks; live tracks coast through it.
        """
        if self.array is None:
            raise ConfigurationError(
                "profile ingestion needs the array geometry; construct "
                "StreamingTracker(array, ...) or use ingest_detections()"
            )
        detections: list[Detection] = []
        if min(profile.power.shape) >= 3:
            floor = float(selection_median(profile.power))
            threshold = self.config.threshold_factor * max(floor, 1e-30)
            peaks = profile.detect(threshold=threshold,
                                   max_peaks=self.config.max_targets)
            detections = [(profile.peak_position(peak, self.array),
                           peak.power) for peak in peaks]
        self.ingest_detections(profile.time, detections)

    def ingest_detections(self, time: float,
                          detections: list[Detection]) -> None:
        """Consume one pre-detected frame of ``(position, power)`` pairs.

        Frames must arrive in nondecreasing time order. Detections are
        clustered and canonically ordered before association, so the
        resulting tracks (IDs included) do not depend on the input order
        of ``detections``. The frame's new and retired tracks are counted
        as ``tracker.births`` and ``tracker.retirements`` in the process
        registry.
        """
        if self._frame_times and time < self._frame_times[-1]:
            raise TrackingError(
                f"frames must arrive in time order: got t={time} after "
                f"t={self._frame_times[-1]}"
            )
        self._frame_times.append(float(time))
        merged = _cluster_detections(detections, self.config.cluster_radius)

        if self._active:
            predictions = np.vstack([track.predict(time)
                                     for track in self._active])
        else:
            predictions = np.empty((0, 2), dtype=float)
        matching = _associate(predictions, merged,
                                   self.config.gate_distance)
        matched_tracks = {ti for ti, _di in matching}
        matched_detections = {di for _ti, di in matching}

        for ti, di in matching:
            position, power = merged[di]
            self._active[ti].add(time, position, power)
        for ti, track in enumerate(self._active):
            if ti not in matched_tracks:
                track.mark_missed()
        for di, (position, power) in enumerate(merged):
            if di not in matched_detections:
                self._active.append(Track(time, position, self.config, power,
                                          track_id=self._next_track_id))
                self._next_track_id += 1

        still_active: list[Track] = []
        for track in self._active:
            if track.alive:
                still_active.append(track)
            elif len(track) >= self.config.min_track_points:
                self._finished.append(track)
        registry = process_metrics()
        registry.inc("tracker.births", len(merged) - len(matched_detections))
        registry.inc("tracker.retirements",
                     len(self._active) - len(still_active))
        self._active = still_active

    # -- finalization ------------------------------------------------------

    def tracks(self) -> list[Track]:
        """The current finalized view: quality-filtered, strongest first.

        Non-destructive — a streaming session can read its tracks after
        every frame and keep ingesting.
        """
        candidates = list(self._finished)
        candidates.extend(track for track in self._active
                          if len(track) >= self.config.min_track_points)
        kept = _quality_filter(candidates, self._frame_times, self.config)
        kept.sort(key=lambda track: track.total_power, reverse=True)
        return kept

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Complete tracker state as a JSON-serializable blob.

        Restoring via :meth:`from_checkpoint` (optionally after a
        ``json.dumps``/``loads`` round trip — Python float repr is exact)
        yields a tracker whose future outputs are bit-identical to one
        that never checkpointed.
        """
        return {
            "version": self.CHECKPOINT_VERSION,
            "config": self.config.to_state(),
            "next_track_id": int(self._next_track_id),
            "frame_times": [float(t) for t in self._frame_times],
            "active": [track.to_state() for track in self._active],
            "finished": [track.to_state() for track in self._finished],
        }

    @classmethod
    def from_checkpoint(cls, state: dict[str, Any],
                        array: UniformLinearArray | None = None,
                        ) -> StreamingTracker:
        """Rebuild a tracker from a :meth:`checkpoint` blob.

        CPU-bound in proportion to checkpoint size (rebuilds every
        track's Kalman state).

        Args:
            state: the checkpoint blob.
            array: array geometry to reattach for profile-level ingestion
                (checkpoints do not embed geometry).

        Raises:
            TrackingError: for a blob that is not a mapping, has another
                version, lacks a :attr:`CHECKPOINT_FIELDS` key or carries
                an unexpected one, or holds a field the nested restores
                cannot parse or reject: frame or track times out of
                order, a filter state or covariance that is not a finite
                ``(4,)`` / ``(4, 4)`` array, a non-finite or out-of-range
                config value or filter variance (chained to the
                underlying error).
        """
        if not isinstance(state, dict):
            raise TrackingError(
                f"tracker checkpoint must be a dict, got "
                f"{type(state).__name__}"
            )
        version = state.get("version")
        if version != cls.CHECKPOINT_VERSION:
            raise TrackingError(
                f"unsupported tracker checkpoint version {version!r} "
                f"(expected {cls.CHECKPOINT_VERSION})"
            )
        missing = [key for key in cls.CHECKPOINT_FIELDS if key not in state]
        unexpected = [key for key in state
                      if key not in cls.CHECKPOINT_FIELDS]
        if missing or unexpected:
            raise TrackingError(
                f"malformed tracker checkpoint: missing keys {missing}, "
                f"unexpected keys {unexpected}"
            )
        try:
            config = TrackerConfig.from_state(state["config"])
            tracker = cls(array, config)
            tracker._next_track_id = int(state["next_track_id"])
            tracker._frame_times = _in_time_order(
                [float(t) for t in state["frame_times"]], "frame_times")
            tracker._active = [Track.from_state(s, config)
                               for s in state["active"]]
            tracker._finished = [Track.from_state(s, config)
                                 for s in state["finished"]]
        except (ConfigurationError, LookupError, TypeError,
                ValueError) as error:
            raise TrackingError(
                f"malformed tracker checkpoint: "
                f"{type(error).__name__}: {error}"
            ) from error
        return tracker


# --------------------------------------------------------------------------
# Batch drivers (thin loops over the streaming core)
# --------------------------------------------------------------------------


def track_detections(frames: list[tuple[float, list[Detection]]],
                     config: TrackerConfig | None = None) -> list[Track]:
    """Batch-track pre-detected frames of ``(time, detections)`` pairs.

    A thin batch driver over :class:`StreamingTracker` — one ingest per
    frame, then the finalized view — for callers (tests, benchmarks,
    external detectors) that bypass the range-angle front end. Returns all
    tracks with at least ``min_track_points`` detections, strongest first.
    """
    tracker = StreamingTracker(config=config)
    for time, detections in frames:
        tracker.ingest_detections(time, detections)
    return tracker.tracks()


# --------------------------------------------------------------------------
# Detection clustering and track quality filtering
# --------------------------------------------------------------------------


def _canonical_order(detections: list[Detection]) -> list[Detection]:
    """Detections sorted strongest-first, position-tie-broken.

    Power ties break on ``(x, y)``, so the ordering — and everything
    downstream of it: cluster membership, centroid summation order,
    association indices, spawn order of new track IDs — is a function of
    the detection *set*, never of the input order.
    """
    return sorted(
        detections,
        key=lambda item: (-item[1], float(item[0][0]), float(item[0][1])),
    )


def _cluster_detections(detections: list[Detection],
                        radius: float) -> list[Detection]:
    """Merge detections within ``radius`` of a stronger one.

    A person is an extended radar target: their body return plus nearby
    multipath form a blob of peaks, not a point. Clustering keeps one
    object per blob at the power-weighted centroid — the small position
    bias this introduces under heavy multipath is precisely the effect
    behind the office environment's larger errors (Sec. 11.1).

    Output order is canonical (see :func:`_canonical_order`) regardless
    of input order, including for ``radius=0``.
    """
    if len(detections) <= 1:
        return list(detections)
    ordered = _canonical_order(detections)
    if radius == 0:
        return ordered
    clusters: list[list[Detection]] = []
    for position, power in ordered:
        for cluster in clusters:
            anchor_position, _anchor_power = cluster[0]
            if np.linalg.norm(position - anchor_position) <= radius:
                cluster.append((position, power))
                break
        else:
            clusters.append([(position, power)])
    merged: list[Detection] = []
    for cluster in clusters:
        weights = np.array([power for _position, power in cluster])
        positions = np.vstack([position for position, _power in cluster])
        centroid = weights @ positions / weights.sum()
        merged.append((centroid, float(weights.sum())))
    return _canonical_order(merged)


def _quality_filter(tracks: list[Track], frame_times: list[float],
                    config: TrackerConfig) -> list[Track]:
    """Reject multipath/speckle tracks by consistency and relative power.

    A real mover is detected in most frames it spans (multipath speckle
    decorrelates frame to frame, so its chains are gappy), and its mean
    detection power is within ``min_relative_power_db`` of the strongest
    concurrent track (bounce trails sit ~10-20 dB below their source).
    """
    if not tracks or not frame_times:
        return list(tracks)
    frame_dt = max(
        float(np.median(np.diff(np.asarray(frame_times)))), 1e-9
    ) if len(frame_times) > 1 else 1e-9

    def hit_ratio(track: Track) -> float:
        spanned = (track.times[-1] - track.times[0]) / frame_dt + 1.0
        return len(track) / max(spanned, 1.0)

    def mean_power(track: Track) -> float:
        return track.total_power / max(len(track), 1)

    consistent = [t for t in tracks if hit_ratio(t) >= config.min_hit_ratio]
    if not consistent:
        return []
    power_floor_ratio = 10.0 ** (-config.min_relative_power_db / 10.0)
    kept: list[Track] = []
    for track in consistent:
        # Compare against the strongest track overlapping this one in time.
        overlapping = [
            other for other in consistent
            if other.times[0] <= track.times[-1]
            and other.times[-1] >= track.times[0]
        ]
        strongest = max(mean_power(other) for other in overlapping)
        if mean_power(track) >= strongest * power_floor_ratio:
            kept.append(track)
    return kept
