"""Per-frame receive oracle: the reference synthesis and receive bodies.

Production senses a whole sweep at once: batched synthesis
(:mod:`repro.radar.batch`), one blocked range FFT, one shifted-difference
background subtraction and lag-domain Eq. 2 beamforming
(:mod:`repro.radar.pipeline`). This module keeps the per-frame code those
kernels replaced — one tone per path component, one windowed FFT per
frame, the frame-chained subtraction, and ``|steering @ h|^2`` against a
cached tapered steering matrix — so the equivalence suites, the golden
digests' ``naive`` entries and the ratio benchmarks can hold production to
it. :func:`pack_frames` and :func:`frame_components` convert between the
oracle's per-frame :class:`PathComponent` lists and the packed columns the
production kernels take; :func:`emit_frame` is production Emit of one
frame as such a list, and :func:`noise_cube` Emit's noise draw.

:func:`sense` and :func:`sense_pulsed` run whole sessions: production
Emit (:func:`~repro.radar.stages.emit_requests`), then the per-frame
synthesis body (FMCW) or the production echo model (pulsed), then the
per-frame receive bodies. :func:`process_sweep` runs those receive bodies
on a beat cube. All three build the production
:class:`~repro.radar.stages.SensingResult`, so the oracle's power cube and
raw profiles meet the production ones in the same result type.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, SignalProcessingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.config import RadarConfig
from repro.radar.emit import NUM_ROWS, Emission, SceneEntity, emit_paths
from repro.radar.frontend import PathComponent, record_synthesis, thermal_noise
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    range_keep_mask,
)
from repro.radar.pulsed import PulsedRadar, PulsedRadarConfig
from repro.radar.radar import FmcwRadar
from repro.radar.scene import OcclusionSpec, Scene
from repro.radar.stages import (
    SenseInput,
    SensingResult,
    emit_requests,
    frame_count,
)
from repro.signal.spectral import range_axis, range_fft

# --------------------------------------------------------------------------
# Synthesis
# --------------------------------------------------------------------------


def synthesize_frame_naive(components: list[PathComponent], config: RadarConfig,
                           array: UniformLinearArray,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """Reference per-component synthesis loop (the pre-vectorization kernel)."""
    chirp = config.chirp
    t = chirp.sample_times()
    frame = np.zeros((config.num_antennas, chirp.num_samples), dtype=complex)

    dropped = 0
    for component in components:
        # A true extra delay behaves exactly like extra distance for FMCW.
        effective_distance = component.distance + float(
            chirp.delay_to_distance(component.extra_delay_s)
        )
        beat_frequency = (chirp.distance_to_beat_frequency(effective_distance)
                          + component.beat_offset_hz)
        if abs(beat_frequency) >= chirp.sample_rate / 2.0:
            # Tone beyond Nyquist: a real ADC's anti-alias filter removes it.
            dropped += 1
            continue
        carrier_phase = (chirp.carrier_phase(effective_distance)
                         + component.phase_offset)
        tone = component.amplitude * np.exp(
            1j * (2.0 * np.pi * beat_frequency * t + carrier_phase)
        )
        antenna_phases = array.arrival_phases(component.angle)
        frame += np.exp(1j * antenna_phases)[:, None] * tone[None, :]
    record_synthesis(1, len(components), dropped)

    if rng is not None and config.noise_std > 0:
        frame += thermal_noise(config.noise_std, rng, np.empty_like(frame))
    return frame


def frame_components(emission: Emission) -> list[list[PathComponent]]:
    """The emitted columns as one :class:`PathComponent` list per frame."""
    flat = [PathComponent(*row) for row in emission.columns.T.tolist()]
    bounds = np.concatenate(([0], np.cumsum(emission.counts))).tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def pack_frames(per_frame: Sequence[Sequence[PathComponent]],
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame component lists as packed ``(6, C)`` columns and counts.

    The reverse of :func:`frame_components`: the form Emit hands the
    production kernels (``synthesize_packed``, the pulsed echo model).
    """
    rows = [(c.distance, c.angle, c.amplitude, c.beat_offset_hz,
             c.phase_offset, c.extra_delay_s)
            for frame in per_frame for c in frame]
    columns = np.array(rows, dtype=float).reshape(-1, NUM_ROWS).T
    counts = np.array([len(frame) for frame in per_frame], dtype=np.int64)
    return columns, counts


def noise_cube(config: RadarConfig, rng: np.random.Generator,
               num_frames: int) -> np.ndarray:
    """Thermal noise for ``num_frames`` frames, drawn frame by frame as
    Emit draws it: the ``out`` cube synthesis adds the tones into."""
    cube = np.empty((num_frames, *config.frame_shape), dtype=complex)
    for frame in cube:
        thermal_noise(config.noise_std, rng, frame)
    return cube


def emit_frame(entities: Sequence[SceneEntity], t: float,
               array: UniformLinearArray, channel: ChannelModel,
               rng: np.random.Generator,
               occlusion: OcclusionSpec | None = None) -> list[PathComponent]:
    """Production Emit of the one frame captured at ``t``, as a list."""
    [emission] = emit_paths(entities, channel, array,
                            [np.array([t], dtype=float)], [rng],
                            occlusion=occlusion)
    return frame_components(emission)[0]


# --------------------------------------------------------------------------
# Per-frame receive processing
# --------------------------------------------------------------------------


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


#: Memo of steering planes, keyed by the array geometry (element count,
#: spacing, wavelength), the taper name (``None`` for the bare Eq. 2
#: matrix), and the angle grid's raw bytes. Sweeps beamform every frame
#: against the *same* grid, so each plane is computed once and shared
#: read-only.
_STEERING_CACHE: dict[
    tuple[int, float, float, str | None, bytes], np.ndarray
] = {}


def _steering_key(array: UniformLinearArray, grid: np.ndarray,
                  taper: str | None,
                  ) -> tuple[int, float, float, str | None, bytes]:
    return (array.num_antennas, array.spacing, array.wavelength, taper,
            grid.tobytes())


def steering_matrix(array: UniformLinearArray,
                    angles: np.ndarray) -> np.ndarray:
    """Conjugate steering vectors for Eq. 2, shape ``(num_angles, K)``.

    Row ``i`` dotted with the per-antenna signal vector ``h`` gives the
    beamformed output toward ``angles[i]``. The plane for a given
    (geometry, grid) is computed once and returned as a shared read-only
    array; ``.copy()`` it before modifying.
    """
    grid = np.asarray(angles, dtype=float)
    key = _steering_key(array, grid, None)
    cached = _STEERING_CACHE.get(key)
    if cached is None:
        k = np.arange(array.num_antennas)
        phase = (2.0 * np.pi * np.outer(np.cos(grid), k)
                 * array.spacing / array.wavelength)
        cached = np.exp(-1j * phase)
        cached.flags.writeable = False
        _STEERING_CACHE[key] = cached
    return cached


def tapered_steering_matrix(array: UniformLinearArray, angles: np.ndarray,
                            taper: str | None) -> np.ndarray:
    """Steering matrix with the amplitude taper folded in, read-only.

    This is the exact matrix :func:`beamform` applies — taper weights
    normalized to preserve total gain — cached per (geometry, grid, taper).
    """
    if taper is None:
        return steering_matrix(array, angles)
    grid = np.asarray(angles, dtype=float)
    key = _steering_key(array, grid, taper)
    cached = _STEERING_CACHE.get(key)
    if cached is None:
        cached = steering_matrix(array, grid) * array.taper_weights(taper)
        cached.flags.writeable = False
        _STEERING_CACHE[key] = cached
    return cached


def beamform(array: UniformLinearArray, signals: np.ndarray,
             angles: np.ndarray, *,
             taper: str | None = "hamming") -> np.ndarray:
    """Apply Eq. 2: per-angle power of per-antenna signals.

    Args:
        array: the receive array.
        signals: complex array ``(K,)`` or ``(K, num_bins)``.
        angles: beamforming angle grid, radians from the array axis.
        taper: amplitude window across the antennas; lowers angle
            sidelobes (at the cost of a wider mainlobe) so a strong
            target does not masquerade as extra targets. ``None``
            disables tapering (the textbook Eq. 2).

    Returns:
        ``(num_angles,)`` or ``(num_angles, num_bins)`` real power.
    """
    h = np.asarray(signals)
    if h.shape[0] != array.num_antennas:
        raise ConfigurationError(
            f"expected {array.num_antennas} antenna signals, got {h.shape[0]}"
        )
    steering = tapered_steering_matrix(array, angles, taper)
    return np.abs(steering @ h) ** 2


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
    power = beamform(array, profiles, angles)  # (num_angles, num_bins)
    return RangeAngleProfile(power=power.T, ranges=ranges, angles=angles, time=time)


# --------------------------------------------------------------------------
# Per-frame stage bodies
# --------------------------------------------------------------------------


def synthesize_naive(emission: Emission, noise: np.ndarray | None,
                     config: RadarConfig,
                     array: UniformLinearArray) -> np.ndarray:
    """Reference per-frame synthesis loop over the emitted components,
    plus Emit's noise cube."""
    frames = np.stack([
        synthesize_frame_naive(components, config, array, None)
        for components in frame_components(emission)
    ])
    if noise is not None:
        frames += noise
    return frames


def range_fft_naive(frames: np.ndarray, config: RadarConfig) -> np.ndarray:
    """Per-frame windowed range FFT (the reference loop)."""
    return np.stack([frame_range_profiles(frame, config) for frame in frames])


def receive_naive(raw_profiles: np.ndarray, range_bins: np.ndarray,
                  times: np.ndarray, config: RadarConfig | PulsedRadarConfig,
                  array: UniformLinearArray, *, max_range: float | None,
                  min_range: float) -> SensingResult:
    """Reference frame-chained subtraction (one warmup frame of zeros) and
    per-frame Eq. 2 beamforming of one request's frames."""
    keep = range_keep_mask(range_bins, min_range=min_range,
                           max_range=max_range)
    kept = raw_profiles[:, :, keep]
    subtracted = np.empty(kept.shape, dtype=kept.dtype)
    previous: np.ndarray | None = None
    for f in range(kept.shape[0]):
        subtracted[f] = background_subtract(kept[f], previous)
        previous = kept[f]
    angles = config.angle_grid()
    power_cube = np.stack([beamform(array, frame, angles).T
                           for frame in subtracted])
    return SensingResult(
        times=times, raw_profiles=raw_profiles, power_cube=power_cube,
        ranges=range_bins[keep], angles=angles, range_bins=range_bins,
        config=config, array=array)


# --------------------------------------------------------------------------
# Whole sessions
# --------------------------------------------------------------------------


def process_sweep(radar: FmcwRadar, times: np.ndarray, frames: np.ndarray,
                  max_range: float) -> SensingResult:
    """The per-frame receive bodies over a beat cube."""
    config = radar.config
    return receive_naive(
        range_fft_naive(np.asarray(frames), config),
        range_axis(config.chirp, zero_pad_factor=ZERO_PAD_FACTOR),
        np.asarray(times, dtype=float), config, radar.array,
        max_range=max_range, min_range=config.min_range)


def sense(radar: FmcwRadar, scene: Scene, duration: float, *,
          rng: np.random.Generator | None = None, start_time: float = 0.0,
          max_range: float | None = None) -> SensingResult:
    """``FmcwRadar.sense`` with the per-frame synthesis and receive bodies."""
    if rng is None:
        rng = np.random.default_rng(0)
    if max_range is None:
        max_range = radar.default_max_range(scene)
    times = radar.frame_times(duration, start_time)
    emission, noise = emit_requests([SenseInput(scene, times, rng)],
                                    radar.config, radar.array)
    frames = synthesize_naive(emission, noise, radar.config, radar.array)
    return process_sweep(radar, times, frames, max_range)


def sense_pulsed(radar: PulsedRadar, scene: Scene, duration: float, *,
                 rng: np.random.Generator | None = None,
                 start_time: float = 0.0) -> SensingResult:
    """``PulsedRadar.sense`` with the per-frame subtraction and Eq. 2."""
    if rng is None:
        rng = np.random.default_rng(0)
    config = radar.config
    times = (start_time + np.arange(frame_count(config, duration))
             * config.frame_interval)
    emission, noise = emit_requests([SenseInput(scene, times, rng)],
                                    config, radar.array)
    return receive_naive(
        radar._synthesize(emission, noise), config.range_bins(), times,
        config, radar.array, max_range=config.max_range,
        min_range=config.min_range)
