"""Pulsed (impulse) radar: the "New Sensor Types" extension of Sec. 13.

The paper notes that pulsed radars are "prone to similar defenses", but
that distance spoofing "needs to be achieved through other mechanisms (e.g.
by adding a set of delay lines and switching between them)". This module
provides the pulsed-radar substrate to test that claim:

- the radar transmits a short Gaussian pulse, receives the superposition of
  delayed echoes per antenna and matched-filters against the pulse. Emit
  and the receive stages are the FMCW radar's own functions
  (:func:`~repro.radar.stages.emit_requests`,
  :func:`~repro.radar.stages.receive`: background subtraction, Eq. 2
  beamforming), so it returns the same
  :class:`~repro.radar.stages.SensingResult` and tracks like it;
- the echo model reads one frame of Emit's packed columns; a path's extra
  delay (the ``EXTRA_DELAY`` row, ``PathComponent.extra_delay_s``) delays
  its echo — the delay-line spoofing mechanism;
- a component's ``beat_offset_hz`` (the FMCW switching trick) does NOT move
  a pulsed echo: on/off switching at kHz rates only gates whole pulses, so
  the line appears at its *physical* distance at duty-cycle amplitude. The
  reproduction therefore demonstrates the paper's implicit negative result:
  the FMCW tag does not spoof distance against a pulsed radar.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.emit import (
    AMPLITUDE,
    ANGLE,
    BEAT_OFFSET,
    DISTANCE,
    EXTRA_DELAY,
    PHASE_OFFSET,
    Emission,
)
from repro.radar.scene import Scene
from repro.radar.stages import (
    SenseInput,
    SensingResult,
    Stage,
    emit_requests,
    frame_count,
    receive,
    timed,
)

__all__ = ["PulsedRadar", "PulsedRadarConfig"]


@dataclasses.dataclass(frozen=True)
class PulsedRadarConfig:
    """Configuration of the pulsed radar.

    Attributes:
        center_frequency: carrier, Hz (sets the array wavelength).
        bandwidth: pulse bandwidth, Hz — range resolution is ``C / 2B``.
        sample_rate: fast-time ADC rate, Hz (>= 2x bandwidth).
        max_range: largest observed range, meters (sets the window length).
        num_antennas / antenna_spacing / position / axis_angle /
        facing_angle / frame_rate / noise_std / angle_grid_points /
        min_range: as in :class:`~repro.radar.config.RadarConfig`.
    """

    center_frequency: float = 6.5e9
    bandwidth: float = 1.0e9
    sample_rate: float = 4.0e9
    max_range: float = 20.0
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
        if self.center_frequency <= 0 or self.bandwidth <= 0:
            raise ConfigurationError("frequencies must be positive")
        if self.sample_rate < 2.0 * self.bandwidth:
            raise ConfigurationError(
                "sample_rate must be at least twice the pulse bandwidth"
            )
        if self.max_range <= self.min_range or self.min_range < 0:
            raise ConfigurationError("need 0 <= min_range < max_range")
        if self.num_antennas < 2:
            raise ConfigurationError("angle estimation needs >= 2 antennas")
        if self.frame_rate <= 0 or self.noise_std < 0:
            raise ConfigurationError("bad frame_rate or noise_std")

    @property
    def wavelength(self) -> float:
        return constants.SPEED_OF_LIGHT / self.center_frequency

    @property
    def spacing(self) -> float:
        if self.antenna_spacing is not None:
            return self.antenna_spacing
        return self.wavelength / 2.0

    @property
    def range_resolution(self) -> float:
        return constants.SPEED_OF_LIGHT / (2.0 * self.bandwidth)

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def num_samples(self) -> int:
        """Fast-time samples covering the round trip to ``max_range``."""
        window = 2.0 * self.max_range / constants.SPEED_OF_LIGHT
        return int(np.ceil(window * self.sample_rate)) + 1

    @property
    def frame_shape(self) -> tuple[int, int]:
        """Shape of one captured frame: (antennas, fast-time samples)."""
        return (self.num_antennas, self.num_samples)

    def pulse_sigma(self) -> float:
        """Gaussian pulse width (seconds) matching the bandwidth."""
        return 1.0 / (2.0 * np.pi * self.bandwidth / 2.355)  # FWHM ~ B

    def angle_grid(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.angle_grid_points + 2)[1:-1]

    def range_bins(self) -> np.ndarray:
        """Distance of each fast-time bin, meters."""
        delays = np.arange(self.num_samples) / self.sample_rate
        return constants.SPEED_OF_LIGHT * delays / 2.0

    def _geometry_config(self) -> RadarConfig:
        """A RadarConfig carrying just the fields the array geometry needs."""
        return RadarConfig(
            num_antennas=self.num_antennas,
            antenna_spacing=self.spacing,
            position=self.position,
            axis_angle=self.axis_angle,
            facing_angle=self.facing_angle,
            frame_rate=self.frame_rate,
            noise_std=self.noise_std,
            angle_grid_points=self.angle_grid_points,
            min_range=self.min_range,
        )


class PulsedRadar:
    """A pulsed radar sharing the scene/entity/tracking machinery."""

    def __init__(self, config: PulsedRadarConfig | None = None) -> None:
        self.config = config if config is not None else PulsedRadarConfig()
        self.array = UniformLinearArray(self.config._geometry_config())

    def _echo_profile(self, columns: np.ndarray) -> np.ndarray:
        """Matched-filtered echoes of one frame, ``(K, num_samples)``.

        ``columns`` are the frame's packed ``(6, C)`` Emit columns. Each
        component contributes a Gaussian pulse (the matched-filter output
        of the real pulse) at its round-trip delay, carrying the carrier
        phase ``2 pi f_c tau`` and the per-antenna array phase.
        """
        config = self.config
        if not columns.shape[1]:
            return np.zeros((config.num_antennas, config.num_samples),
                            dtype=complex)
        delays = np.arange(config.num_samples) / config.sample_rate
        sigma = config.pulse_sigma()
        # kHz on/off switching cannot shift a ~ns pulse in delay; it only
        # gates pulses, scaling the echo by the duty cycle. The echo stays
        # at the PHYSICAL distance — the FMCW distance trick is inert
        # against pulsed radars.
        amplitudes = np.where(columns[BEAT_OFFSET] != 0.0,
                              columns[AMPLITUDE] * 0.5, columns[AMPLITUDE])
        tau = (2.0 * columns[DISTANCE] / constants.SPEED_OF_LIGHT
               + columns[EXTRA_DELAY])
        envelopes = np.exp(
            -0.5 * ((delays[None, :] - tau[:, None]) / sigma) ** 2
        )
        phases = (2.0 * np.pi * config.center_frequency * tau
                  + columns[PHASE_OFFSET])
        echoes = (amplitudes * np.exp(1j * phases))[:, None] * envelopes
        steering = np.exp(1j * self.array.arrival_phase_matrix(columns[ANGLE]))
        profile: np.ndarray = np.einsum("kc,cn->kn", steering, echoes)
        return profile

    def _synthesize(self, emission: Emission,
                    noise: np.ndarray | None) -> np.ndarray:
        """The echo model: deterministic echoes of every frame, plus noise.

        Matched filtering happens inside the echo model (the Gaussian
        envelope IS the filter output), so the frames are already range
        profiles over :meth:`PulsedRadarConfig.range_bins`.
        """
        bounds = np.concatenate(([0], np.cumsum(emission.counts))).tolist()
        frames = np.stack([self._echo_profile(emission.columns[:, a:b])
                           for a, b in zip(bounds, bounds[1:])])
        if noise is not None:
            frames = frames + noise
        return frames

    def sense(self, scene: Scene, duration: float, *,
              rng: np.random.Generator | None = None,
              start_time: float = 0.0) -> SensingResult:
        """Capture ``duration`` seconds of pulsed frames from ``scene``.

        Emit is the FMCW radar's stage and Synthesize the pulsed echo
        model. RangeFFT only publishes the fast-time range axis, the
        pulsed analogue of the FMCW range FFT. Background subtraction and
        Eq. 2 beamforming are the FMCW radar's :func:`receive`.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        config = self.config
        times = (start_time + np.arange(frame_count(config, duration))
                 * config.frame_interval)
        emission, noise = emit_requests([SenseInput(scene, times, rng)],
                                        config, self.array)
        with timed(Stage.SYNTHESIZE):
            raw_profiles = self._synthesize(emission, noise)
        with timed(Stage.RANGE_FFT):
            range_bins = config.range_bins()
        [result] = receive(raw_profiles, range_bins, [times], config,
                           self.array, max_range=config.max_range,
                           min_range=config.min_range)
        return result
