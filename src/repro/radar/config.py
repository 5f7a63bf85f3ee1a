"""Radar configuration: chirp, array, frame timing, and noise floor."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.signal.chirp import ChirpConfig

__all__ = ["RadarConfig"]


@dataclasses.dataclass(frozen=True)
class RadarConfig:
    """Full configuration of the simulated FMCW radar.

    Attributes:
        chirp: chirp sweep and beat sampling parameters.
        num_antennas: receive antennas in the 1-D array (paper: 7).
        antenna_spacing: element spacing in meters; ``None`` means half the
            center-frequency wavelength (the standard unambiguous spacing).
        position: radar (x, y) location in room coordinates, meters.
        axis_angle: orientation of the array axis, radians from +x.
        facing_angle: boresight direction into the room, radians from +x.
            Must not be parallel to the array axis.
        frame_rate: chirp frames per second used for tracking.
        noise_std: standard deviation of complex thermal noise per beat
            sample (per antenna), in the same linear units as path amplitudes.
        angle_grid_points: number of beamforming angles spanning (0, pi).
        min_range: near-field blanking distance in meters. Real FMCW
            frontends discard the first range bins (TX leakage, coupling);
            this also removes the switching mirror line that can land
            between the radar and the tag (Sec. 5.1's negative harmonics).
    """

    chirp: ChirpConfig = dataclasses.field(default_factory=ChirpConfig)
    num_antennas: int = constants.RADAR_NUM_ANTENNAS
    antenna_spacing: float | None = None
    position: tuple[float, float] = (0.0, 0.0)
    axis_angle: float = 0.0
    facing_angle: float = np.pi / 2.0
    frame_rate: float = 10.0
    noise_std: float = 5e-4
    angle_grid_points: int = 181
    min_range: float = 0.6

    def __post_init__(self) -> None:
        if self.num_antennas < 2:
            raise ConfigurationError("angle estimation needs at least 2 antennas")
        if self.antenna_spacing is not None and self.antenna_spacing <= 0:
            raise ConfigurationError("antenna_spacing must be positive")
        if self.frame_rate <= 0:
            raise ConfigurationError("frame_rate must be positive")
        if self.frame_rate > 1.0 / self.chirp.duration:
            raise ConfigurationError(
                "frame_rate exceeds 1/chirp duration: frames would overlap"
            )
        if self.noise_std < 0:
            raise ConfigurationError("noise_std must be non-negative")
        if self.angle_grid_points < 8:
            raise ConfigurationError("angle grid needs at least 8 points")
        if self.min_range < 0:
            raise ConfigurationError("min_range must be >= 0")
        alignment = abs(np.cos(self.facing_angle - self.axis_angle))
        if alignment > 0.999:
            raise ConfigurationError(
                "facing direction must not be parallel to the array axis"
            )

    @property
    def spacing(self) -> float:
        """Effective element spacing (defaults to lambda/2 at band center)."""
        if self.antenna_spacing is not None:
            return self.antenna_spacing
        return self.chirp.wavelength / 2.0

    @property
    def frame_interval(self) -> float:
        """Seconds between successive frames."""
        return 1.0 / self.frame_rate

    @property
    def frame_shape(self) -> tuple[int, int]:
        """Shape of one captured frame: (antennas, beat samples)."""
        return (self.num_antennas, self.chirp.num_samples)

    @property
    def angular_resolution(self) -> float:
        """Approximate array angular resolution pi/K (Sec. 5.2), radians."""
        return np.pi / self.num_antennas

    def angle_grid(self) -> np.ndarray:
        """Beamforming angle grid over the open interval (0, pi), radians."""
        return np.linspace(0.0, np.pi, self.angle_grid_points + 2)[1:-1]
