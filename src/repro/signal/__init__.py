"""DSP substrate: chirp math, spectra, detection, filtering, and phase tools.

This package contains the signal-processing primitives shared by the radar
simulator (`repro.radar`) and the reflector model (`repro.reflector`). It is
deliberately free of scene or hardware concepts: everything here operates on
plain arrays and small configuration objects.
"""

from repro.signal.chirp import ChirpConfig
from repro.signal.detection import PeakDetection, detect_peaks_2d, selection_median
from repro.signal.filtering import (
    median_filter,
    moving_average,
    reject_outliers,
    smooth_trajectory,
)
from repro.signal.phase import extract_phase, unwrap_phase, dominant_period
from repro.signal.spectral import (
    beat_spectrum,
    find_spectral_peaks,
    range_axis,
    range_fft,
)
from repro.signal.windows import get_window

__all__ = [
    "ChirpConfig",
    "PeakDetection",
    "beat_spectrum",
    "detect_peaks_2d",
    "dominant_period",
    "extract_phase",
    "find_spectral_peaks",
    "get_window",
    "median_filter",
    "moving_average",
    "range_axis",
    "range_fft",
    "reject_outliers",
    "selection_median",
    "smooth_trajectory",
    "unwrap_phase",
]
