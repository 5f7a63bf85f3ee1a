"""The paper's processing pipeline (Sec. 9.1): beats -> range-angle maps.

Per frame: range-FFT each antenna's beat signal, subtract the previous
frame's profile to remove static reflectors, then beamform (Eq. 2) across an
angle grid to obtain the range-angle power profile whose peaks are humans
(or RF-Protect phantoms — Fig. 10).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError, SignalProcessingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.signal.detection import PeakDetection, detect_peaks_2d
from repro.signal.spectral import range_axis, range_fft

__all__ = [
    "RangeAngleProfile",
    "ZERO_PAD_FACTOR",
    "background_subtract",
    "compute_range_angle_map",
    "frame_range_profiles",
    "range_keep_mask",
]

#: Range-FFT length multiplier used by the *entire* receive chain — the
#: per-frame reference path here, the batched engine in
#: :mod:`repro.radar.pipeline`, and ``SensingResult.range_bins()`` all read
#: this one constant, so the FFT grid and the reported range axis can never
#: drift apart.
ZERO_PAD_FACTOR = 2

# Backwards-compatible private alias (pre-pipeline callers imported this).
_ZERO_PAD_FACTOR = ZERO_PAD_FACTOR


def frame_range_profiles(frame: np.ndarray, config: RadarConfig) -> np.ndarray:
    """Complex range profiles per antenna, shape ``(K, num_bins)``."""
    beats = np.asarray(frame)
    if beats.ndim != 2 or beats.shape[0] != config.num_antennas:
        raise SignalProcessingError(
            f"frame must be (num_antennas, num_samples), got {beats.shape}"
        )
    return range_fft(beats, config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)


def background_subtract(profiles: np.ndarray,
                        previous: np.ndarray | None) -> np.ndarray:
    """Successive-frame subtraction: removes static reflections exactly.

    The first frame (``previous is None``) has nothing to subtract and
    returns zeros, matching a real pipeline's one-frame warmup.
    """
    current = np.asarray(profiles)
    if previous is None:
        return np.zeros_like(current)
    prev = np.asarray(previous)
    if prev.shape != current.shape:
        raise SignalProcessingError(
            f"frame shape changed between subtractions: {prev.shape} -> {current.shape}"
        )
    return current - prev


def range_keep_mask(ranges: np.ndarray, *, min_range: float,
                    max_range: float | None) -> np.ndarray:
    """Boolean mask of range bins inside ``[min_range, max_range]``.

    One definition shared by the per-frame reference path, the batched
    pipeline and the serving engine; a window that keeps no bin raises
    :class:`ConfigurationError`.
    """
    keep = ranges >= min_range
    if max_range is not None:
        keep = keep & (ranges <= max_range)
    if not keep.any():
        raise ConfigurationError(f"range crop [min_range={min_range}, "
                                 f"max_range={max_range}] m keeps no range bin")
    return keep


@dataclasses.dataclass(frozen=True)
class RangeAngleProfile:
    """One frame's range-angle power map and its coordinate axes.

    Attributes:
        power: real array ``(num_bins, num_angles)``.
        ranges: distance of each range bin, meters.
        angles: beamforming angle of each column, radians from array axis.
        time: frame capture time, seconds.
    """

    power: np.ndarray
    ranges: np.ndarray
    angles: np.ndarray
    time: float

    def peak_position(self, peak: PeakDetection,
                      array: UniformLinearArray) -> np.ndarray:
        """Cartesian (x, y) of a detected peak, on the array's facing side."""
        distance = float(self.ranges[peak.range_index])
        angle = float(self.angles[peak.angle_index])
        return array.point_at(distance, angle)

    def detect(self, *, threshold: float, max_peaks: int | None = None,
               min_range_separation_m: float = 0.3,
               min_angle_separation_rad: float = 0.12) -> list[PeakDetection]:
        """Detect peaks with physical (meters/radians) separation limits."""
        if min(self.power.shape) < 3:  # no interior cell, so no peak
            return []
        range_step = float(self.ranges[1] - self.ranges[0])
        angle_step = float(abs(self.angles[1] - self.angles[0]))
        return detect_peaks_2d(
            self.power,
            threshold=threshold,
            max_peaks=max_peaks,
            min_range_separation=max(1, int(round(min_range_separation_m / range_step))),
            min_angle_separation=max(1, int(round(min_angle_separation_rad / angle_step))),
        )

    def total_power(self) -> float:
        """Sum of the map's power — used for empty-frame rejection."""
        return float(self.power.sum())


def compute_range_angle_map(subtracted_profiles: np.ndarray,
                            config: RadarConfig, array: UniformLinearArray,
                            time: float, *,
                            max_range: float | None = None,
                            min_range: float | None = None) -> RangeAngleProfile:
    """Beamform background-subtracted per-antenna profiles into a map.

    Args:
        subtracted_profiles: complex ``(K, num_bins)`` after subtraction.
        config: radar configuration.
        array: array geometry for Eq. 2.
        time: frame capture time (propagated into the result).
        max_range: optional crop — bins beyond this distance are discarded
            (rooms are finite; this also drops switching harmonics that land
            outside the home, as in Sec. 5.1).
        min_range: near-field blanking (defaults to ``config.min_range``).
    """
    ranges = range_axis(config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)
    profiles = np.asarray(subtracted_profiles)
    if min_range is None:
        min_range = config.min_range
    keep = range_keep_mask(ranges, min_range=min_range, max_range=max_range)
    ranges = ranges[keep]
    profiles = profiles[:, keep]
    angles = config.angle_grid()
    power = array.beamform(profiles, angles)  # (num_angles, num_bins)
    return RangeAngleProfile(power=power.T, ranges=ranges, angles=angles, time=time)
