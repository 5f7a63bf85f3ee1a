"""The paper's processing pipeline (Sec. 9.1): beats -> range-angle maps.

Per frame: range-FFT each antenna's beat signal, subtract the previous
frame's profile to remove static reflectors, then beamform (Eq. 2) across an
angle grid to obtain the range-angle power profile whose peaks are humans
(or RF-Protect phantoms — Fig. 10). The batched engine in
:mod:`repro.radar.pipeline` runs those passes over whole sweeps; this
module holds what every receive path shares: the zero-pad factor, the
range crop, and the :class:`RangeAngleProfile` map type.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.radar.antenna import UniformLinearArray
from repro.signal.detection import PeakDetection, detect_peaks_2d

__all__ = [
    "RangeAngleProfile",
    "ZERO_PAD_FACTOR",
    "range_keep_mask",
]

#: Range-FFT length multiplier used by the *entire* receive chain — the
#: batched engine in :mod:`repro.radar.pipeline` and the RangeFFT stage,
#: whose range axis every ``SensingResult`` keeps as ``range_bins``, read
#: this one constant, so the FFT grid and the reported range axis can
#: never drift apart.
ZERO_PAD_FACTOR = 2


def range_keep_mask(ranges: np.ndarray, *, min_range: float,
                    max_range: float | None) -> np.ndarray:
    """Boolean mask of range bins inside ``[min_range, max_range]``.

    One definition shared by the batched pipeline and the serving engine;
    a window that keeps no bin raises :class:`ConfigurationError`.
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
