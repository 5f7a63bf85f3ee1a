"""Per-frame Detect oracle: the historical front end and Kalman bodies.

Production Detect (:meth:`repro.radar.tracker.StreamingTracker.ingest`)
thresholds each map at a selection median, builds the 3x3 peak mask as a
separable box maximum over the threshold band only, reuses read-only
Kalman constants, and computes the array's perpendicular once. This
module keeps the code those replaced — ``np.median`` per map, eight
neighbour comparisons over the whole interior, ``np.eye`` and a fresh
observation matrix on every Kalman step, the perpendicular re-derived on
every ``point_at`` — so the equivalence suite can pin the shipped tracker
to it bit for bit: track ids, times, positions, powers and Kalman state.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError, SignalProcessingError, TrackingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.processing import RangeAngleProfile
from repro.radar.tracker import (
    Detection,
    KalmanTracker2D,
    StreamingTracker,
    Track,
    TrackerConfig,
    _associate,
    _cluster_detections,
)
from repro.signal.detection import PeakDetection


def point_at(array: UniformLinearArray, distance: float,
             angle: float) -> np.ndarray:
    """Cartesian point at (distance, angle), perpendicular derived per call."""
    if distance < 0:
        raise ConfigurationError(f"distance must be >= 0, got {distance}")
    along_axis = np.cos(angle)
    perp = array.facing - (array.facing @ array.axis) * array.axis
    perp_norm = np.linalg.norm(perp)
    if perp_norm == 0:
        raise ConfigurationError("facing direction parallel to array axis")
    perp = perp / perp_norm
    off_axis = np.sin(angle)
    return array.position + distance * (along_axis * array.axis
                                        + off_axis * perp)


def detect_peaks_2d(power_map: np.ndarray, *, threshold: float,
                    max_peaks: int | None = None,
                    min_range_separation: int = 1,
                    min_angle_separation: int = 1,
                    sidelobe_rejection_db: float | None = 12.0,
                    sidelobe_range_bins: int = 3,
                    range_sidelobe_rejection_db: float = 20.0,
                    range_sidelobe_angle_bins: int = 5) -> list[PeakDetection]:
    """Eight neighbour comparisons over the whole interior, then acceptance."""
    grid = np.asarray(power_map, dtype=float)
    if grid.ndim != 2:
        raise SignalProcessingError(
            f"detect_peaks_2d expects a 2-D map, got shape {grid.shape}"
        )
    if grid.shape[0] < 3 or grid.shape[1] < 3:
        return []

    center = grid[1:-1, 1:-1]
    is_max = np.ones_like(center, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbour = grid[1 + dr: grid.shape[0] - 1 + dr,
                             1 + dc: grid.shape[1] - 1 + dc]
            is_max &= center >= neighbour
    rows, cols = np.nonzero(is_max & (center > threshold))
    rows = rows + 1
    cols = cols + 1

    sidelobe_ratio = None
    range_sidelobe_ratio = None
    if sidelobe_rejection_db is not None:
        if sidelobe_rejection_db <= 0 or range_sidelobe_rejection_db <= 0:
            raise SignalProcessingError("sidelobe rejection dB must be positive")
        sidelobe_ratio = 10.0 ** (-sidelobe_rejection_db / 10.0)
        range_sidelobe_ratio = 10.0 ** (-range_sidelobe_rejection_db / 10.0)

    order = np.argsort(grid[rows, cols])[::-1]
    blocked = np.zeros(grid.shape, dtype=bool)
    row_floor = np.zeros(grid.shape[0], dtype=float)
    col_floor = np.zeros(grid.shape[1], dtype=float)
    accepted: list[PeakDetection] = []
    for k in order:
        r, c = int(rows[k]), int(cols[k])
        power = float(grid[r, c])
        clash = bool(blocked[r, c])
        if not clash and sidelobe_ratio is not None:
            clash = power < row_floor[r] or power < col_floor[c]
        if clash:
            continue
        accepted.append(PeakDetection(r, c, power))
        if max_peaks is not None and len(accepted) >= max_peaks:
            break
        blocked[max(r - min_range_separation + 1, 0): r + min_range_separation,
                max(c - min_angle_separation + 1, 0): c + min_angle_separation,
                ] = True
        if sidelobe_ratio is not None:
            assert range_sidelobe_ratio is not None
            row_lo = max(r - sidelobe_range_bins, 0)
            row_slice = slice(row_lo, r + sidelobe_range_bins + 1)
            np.maximum(row_floor[row_slice], power * sidelobe_ratio,
                       out=row_floor[row_slice])
            col_lo = max(c - range_sidelobe_angle_bins, 0)
            col_slice = slice(col_lo, c + range_sidelobe_angle_bins + 1)
            np.maximum(col_floor[col_slice], power * range_sidelobe_ratio,
                       out=col_floor[col_slice])
    return accepted


def detect(profile: RangeAngleProfile, *, threshold: float,
           max_peaks: int | None = None,
           min_range_separation_m: float = 0.3,
           min_angle_separation_rad: float = 0.12) -> list[PeakDetection]:
    """``RangeAngleProfile.detect`` with physical separation limits."""
    range_step = float(profile.ranges[1] - profile.ranges[0])
    angle_step = float(abs(profile.angles[1] - profile.angles[0]))
    return detect_peaks_2d(
        profile.power,
        threshold=threshold,
        max_peaks=max_peaks,
        min_range_separation=max(1, int(round(min_range_separation_m / range_step))),
        min_angle_separation=max(1, int(round(min_angle_separation_rad / angle_step))),
    )


class OracleKalman(KalmanTracker2D):
    """Kalman steps that build their identities and ``H`` on every call."""

    def predict(self, dt: float) -> np.ndarray:
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        transition = np.eye(4)
        transition[0, 2] = dt
        transition[1, 3] = dt
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
        z = np.asarray(measurement, dtype=float)
        if z.shape != (2,):
            raise ConfigurationError("measurement must be (x, y)")
        observation = np.zeros((2, 4), dtype=float)
        observation[0, 0] = 1.0
        observation[1, 1] = 1.0
        innovation = z - observation @ self.state
        innovation_cov = (observation @ self.covariance @ observation.T
                          + self.measurement_noise * np.eye(2))
        gain = self.covariance @ observation.T @ np.linalg.inv(innovation_cov)
        self.state = self.state + gain @ innovation
        self.covariance = (np.eye(4) - gain @ observation) @ self.covariance
        return self.position


class OracleTrack(Track):
    """A track on :class:`OracleKalman` whose look-ahead builds ``np.eye``."""

    def __init__(self, time: float, position: np.ndarray,
                 config: TrackerConfig, power: float = 0.0,
                 track_id: int = 0) -> None:
        super().__init__(time, position, config, power, track_id)
        self.filter = OracleKalman(position)

    def predict(self, time: float) -> np.ndarray:
        dt = max(time - self._last_time, 1e-6)
        transition = np.eye(4)
        transition[0, 2] = dt
        transition[1, 3] = dt
        return (transition @ self.filter.state)[:2]


class OracleTracker(StreamingTracker):
    """The historical per-frame front end over oracle tracks."""

    def ingest(self, profile: RangeAngleProfile) -> None:
        assert self.array is not None
        floor = float(np.median(profile.power))
        threshold = self.config.threshold_factor * max(floor, 1e-30)
        peaks = detect(profile, threshold=threshold,
                       max_peaks=self.config.max_targets)
        detections = [
            (point_at(self.array,
                      float(profile.ranges[peak.range_index]),
                      float(profile.angles[peak.angle_index])),
             peak.power)
            for peak in peaks
        ]
        self.ingest_detections(profile.time, detections)

    def ingest_detections(self, time: float,
                          detections: list[Detection]) -> None:
        if self._frame_times and time < self._frame_times[-1]:
            raise TrackingError("frames must arrive in time order")
        self._frame_times.append(float(time))
        merged = _cluster_detections(detections, self.config.cluster_radius)

        if self._active:
            predictions = np.vstack([track.predict(time)
                                     for track in self._active])
        else:
            predictions = np.empty((0, 2), dtype=float)
        matching = _associate(predictions, merged, self.config.gate_distance)
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
                self._active.append(OracleTrack(
                    time, position, self.config, power,
                    track_id=self._next_track_id))
                self._next_track_id += 1

        still_active: list[Track] = []
        for track in self._active:
            if track.alive:
                still_active.append(track)
            elif len(track) >= self.config.min_track_points:
                self._finished.append(track)
        self._active = still_active


def oracle_tracker(profiles: list[RangeAngleProfile],
                   array: UniformLinearArray,
                   config: TrackerConfig | None = None) -> OracleTracker:
    """An :class:`OracleTracker` that has ingested ``profiles`` in order."""
    tracker = OracleTracker(array, config)
    for profile in profiles:
        tracker.ingest(profile)
    return tracker


def tracker_state(tracker: StreamingTracker) -> dict[str, Any]:
    """Checkpoint plus the finalized view's ids, for bitwise comparison."""
    return {"checkpoint": tracker.checkpoint(),
            "tracks": [track.track_id for track in tracker.tracks()]}
