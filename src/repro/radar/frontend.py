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

The synthesis kernel itself is the batched, broadcasted
:func:`~repro.radar.batch.synthesize_packed`, over Emit's packed columns;
this module holds the path-component type (whose fields the packed rows
follow, and the form the test oracles take), the synthesis counts and the
shared thermal-noise draw. The reference per-component loop it replaced
is a test oracle (``tests/receive_oracle.py``), and
``tests/test_frontend_equivalence.py`` pins the engine to it.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from repro.errors import SignalProcessingError
from repro.obs import process_metrics

__all__ = [
    "PathComponent",
    "SYNTH_STATS",
    "SynthesisStats",
    "record_synthesis",
    "thermal_noise",
]

logger = logging.getLogger(__name__)


def record_synthesis(frames: int, components: int, dropped: int) -> None:
    """Count one synthesis call into the process registry.

    A super-Nyquist tone is silently invisible to the radar (a real ADC's
    anti-alias filter removes it), but silently *dropping* it in simulation
    made a whole class of bugs untestable. The synthesis kernel (and its
    per-component test oracle) logs drops at debug level and adds its
    totals to ``synth.frames``, ``synth.components`` and
    ``synth.dropped_tones``, so tests can assert both discard exactly the
    same tones.
    """
    registry = process_metrics()
    registry.inc("synth.frames", frames)
    registry.inc("synth.components", components)
    registry.inc("synth.dropped_tones", dropped)
    if dropped:
        logger.debug("synthesis dropped %d/%d super-Nyquist tone(s)",
                     dropped, components)


class SynthesisStats:
    """Read-only view of the ``synth.*`` counters (:func:`record_synthesis`)."""

    @staticmethod
    def _count(name: str) -> int:
        counters = process_metrics().snapshot()["counters"]
        return int(counters.get(f"synth.{name}", 0))

    @property
    def frames_synthesized(self) -> int:
        return self._count("frames")

    @property
    def components_seen(self) -> int:
        return self._count("components")

    @property
    def dropped_tones(self) -> int:
        return self._count("dropped_tones")


SYNTH_STATS = SynthesisStats()


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
