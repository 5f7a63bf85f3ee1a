"""Beat-signal synthesis: from propagation paths to per-antenna ADC samples.

After dechirping, each propagation path contributes one complex tone to the
beat signal (Sec. 3):

    a * exp(j * (2 pi (f_b + f_off) t + phi_carrier + phi_extra + phi_k))

with ``f_b = sl * tau`` set by the path's geometric distance, ``phi_carrier
= 2 pi f0 tau`` carrying sub-wavelength motion, ``phi_k`` the per-antenna
array phase, and — crucially for RF-Protect — an optional *beat frequency
offset* ``f_off``. Physical scatterers have ``f_off = 0``; the switched
reflector's square-wave harmonics appear as components with ``f_off = ±n *
f_switch`` (Sec. 5.1), which is exactly how the tag spoofs distance.

Two interchangeable synthesis kernels exist: the reference per-component
loop in this module (:func:`synthesize_frame_naive`) and the batched,
broadcasted engine in :mod:`repro.radar.batch`. Both register with the
Synthesize stage of the kernel registry (:mod:`repro.radar.stages`);
:func:`synthesize_frame` resolves through that registry, which follows the
``RF_PROTECT_SYNTH`` environment variable (``vectorized`` by default,
``naive`` as the debugging escape hatch); the equivalence suite in
``tests/test_frontend_equivalence.py`` pins the two kernels to each other.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from repro.errors import SignalProcessingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig

__all__ = [
    "PathComponent",
    "SYNTH_STATS",
    "SynthesisStats",
    "synthesis_backend",
    "synthesize_frame",
    "synthesize_frame_naive",
    "thermal_noise",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass
class SynthesisStats:
    """Process-wide counters for the synthesis kernels.

    A super-Nyquist tone is silently invisible to the radar (a real ADC's
    anti-alias filter removes it), but silently *dropping* it in simulation
    made a whole class of bugs untestable. Both kernels log each drop at
    debug level and accumulate counts here so tests can assert the naive
    and vectorized paths discard exactly the same tones.
    """

    frames_synthesized: int = 0
    components_seen: int = 0
    dropped_tones: int = 0

    def reset(self) -> None:
        self.frames_synthesized = 0
        self.components_seen = 0
        self.dropped_tones = 0

    def record_frame(self, num_components: int, num_dropped: int,
                     backend: str) -> None:
        self.frames_synthesized += 1
        self.components_seen += num_components
        self.dropped_tones += num_dropped
        if num_dropped:
            logger.debug(
                "%s synthesis dropped %d/%d super-Nyquist tone(s)",
                backend, num_dropped, num_components,
            )


SYNTH_STATS = SynthesisStats()


def synthesis_backend() -> str:
    """The active synthesis kernel, from ``RF_PROTECT_SYNTH``.

    Thin alias for the Synthesize stage's default backend, resolved
    through the kernel registry (:mod:`repro.radar.stages`) — the one
    module allowed to branch on the backend accessors (see RFP009).
    """
    # Imported lazily: repro.radar.stages registers this module's kernels,
    # so it imports us at module load.
    from repro.radar.stages import Stage, default_backend

    return default_backend(Stage.SYNTHESIZE)


@dataclasses.dataclass(frozen=True)
class PathComponent:
    """One tone in the dechirped beat signal.

    Attributes:
        distance: one-way geometric distance radar -> scatter point, meters.
            Sets both the beat frequency and the carrier phase.
        angle: azimuth of arrival, radians from the array axis, in (0, pi).
        amplitude: linear amplitude at the radar.
        beat_offset_hz: extra beat-frequency shift (0 for physical paths;
            ``±n * f_switch`` for the tag's switching harmonics).
        phase_offset: extra carrier phase in radians (breathing spoof,
            switching-oscillator phase, random scatter phase).
        extra_delay_s: true additional propagation delay, seconds — the
            mechanism of a *delay-line* spoofer (Sec. 13's pulsed-radar
            extension). Unlike ``beat_offset_hz`` it is modulation-agnostic:
            an FMCW radar sees it as a beat shift ``sl * delay`` plus the
            carrier rotation, a pulsed radar sees the echo arrive late.
    """

    distance: float
    angle: float
    amplitude: float
    beat_offset_hz: float = 0.0
    phase_offset: float = 0.0
    extra_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise SignalProcessingError(f"path distance must be >= 0, got {self.distance}")
        if self.amplitude < 0:
            raise SignalProcessingError(f"path amplitude must be >= 0, got {self.amplitude}")
        if self.extra_delay_s < 0:
            raise SignalProcessingError(
                f"extra delay must be >= 0, got {self.extra_delay_s}"
            )


def apparent_distance(component: PathComponent, config: RadarConfig) -> float:
    """Distance the radar measures for ``component`` under ``config``."""
    delay_distance = float(
        config.chirp.delay_to_distance(component.extra_delay_s)
    )
    return float(component.distance + delay_distance
                 + config.chirp.offset_for_switch_frequency(component.beat_offset_hz))


def thermal_noise(noise_std: float, rng: np.random.Generator,
                  out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with complex thermal noise, ``noise_std`` per sample.

    The one noise draw of every radar family: the real parts, then the
    imaginary parts, from ``rng.normal(0, noise_std / sqrt(2))`` — one
    sized call, which yields the stream of the historical two calls —
    written straight into the caller's (complex) cube slice. The values
    are bit-identical to ``a + 1j * b`` without its complex temporaries.
    Returns ``out``.
    """
    scale = noise_std / np.sqrt(2.0)
    parts = rng.normal(0.0, scale, (2, *out.shape))
    out.real = parts[0]
    out.imag = parts[1]
    return out


def synthesize_frame_naive(components: list[PathComponent], config: RadarConfig,
                           array: UniformLinearArray,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """Reference per-component synthesis loop (the pre-vectorization kernel).

    Kept as the ground truth the batched engine is tested against, and as
    the ``RF_PROTECT_SYNTH=naive`` debugging fallback.
    """
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
    SYNTH_STATS.record_frame(len(components), dropped, "naive")

    if rng is not None and config.noise_std > 0:
        frame += thermal_noise(config.noise_std, rng, np.empty_like(frame))
    return frame


def synthesize_frame(components: list[PathComponent], config: RadarConfig,
                     array: UniformLinearArray,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Synthesize one frame of beat samples for all antennas.

    Resolves the frame-level Synthesize kernel through the registry in
    :mod:`repro.radar.stages` — the batched engine
    (:mod:`repro.radar.batch`) or the reference loop above according to
    ``RF_PROTECT_SYNTH``.

    Args:
        components: propagation paths visible in this chirp.
        config: radar configuration (chirp, noise, array size).
        array: array geometry supplying the per-antenna arrival phases.
        rng: random generator for thermal noise; ``None`` disables noise.

    Returns:
        Complex array of shape ``(num_antennas, num_samples)``.
    """
    from repro.radar.stages import frame_synthesizer

    return frame_synthesizer()(components, config, array, rng)
