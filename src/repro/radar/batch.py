"""Batched, vectorized beat-frame synthesis.

The reference kernel (a test oracle, ``tests/receive_oracle.py``) loops over
:class:`~repro.radar.frontend.PathComponent`s in Python and materializes one
``(K, N)`` outer product per component. This module packs a frame's (or a
whole sweep's) components into flat arrays and synthesizes all antennas x
samples x components in one broadcasted contraction:

    frame[k, n] = sum_c  a_c * exp(j (2 pi f_c t_n + phi_c)) * exp(j psi_{k,c})

where ``f_c``/``phi_c`` are the per-component beat frequency and carrier
phase and ``psi`` is the array's arrival-phase matrix.

Because the beat samples sit on a uniform time grid, each tone's phase is an
arithmetic progression, so the sample index ``n = b*B + m`` factors the
exponential exactly: ``exp(j theta n) = exp(j theta b B) * exp(j theta m)``.
With ``B ~ sqrt(N)`` this needs only ``~2 C sqrt(N)`` complex exponentials
instead of ``C*N`` — the transcendental work that dominates the reference
loop — and the remaining sum over components is a single BLAS matmul per
frame. ``tests/test_frontend_equivalence.py`` pins this engine to the
reference loop; physics notes live in :mod:`repro.radar.frontend`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.frontend import PathComponent, record_synthesis, thermal_noise
from repro.signal.chirp import ChirpConfig

__all__ = [
    "PackedComponents",
    "pack_components",
    "synthesize_frame",
    "synthesize_frames",
    "synthesize_packed",
]


@dataclasses.dataclass(frozen=True)
class PackedComponents:
    """A set of path components as flat arrays, one entry per component.

    This is the batch-friendly wire format between scene emission and the
    vectorized kernel: every field of :class:`PathComponent` becomes a
    float64 vector of equal length.
    """

    distances: np.ndarray
    angles: np.ndarray
    amplitudes: np.ndarray
    beat_offsets_hz: np.ndarray
    phase_offsets: np.ndarray
    extra_delays_s: np.ndarray

    def __len__(self) -> int:
        return self.distances.shape[0]


def _pack_rows(components: Sequence[PathComponent]) -> np.ndarray:
    """A component list as a ``(6, C)`` array, rows in field order."""
    n = len(components)
    fields = np.empty((6, n), dtype=float)
    for i, c in enumerate(components):
        fields[0, i] = c.distance
        fields[1, i] = c.angle
        fields[2, i] = c.amplitude
        fields[3, i] = c.beat_offset_hz
        fields[4, i] = c.phase_offset
        fields[5, i] = c.extra_delay_s
    return fields


def pack_components(components: Sequence[PathComponent]) -> PackedComponents:
    """Pack a component list into flat per-field arrays."""
    return PackedComponents(*_pack_rows(components))


def _beat_and_carrier(packed: PackedComponents, chirp: ChirpConfig,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-component beat frequency, total tone phase, and Nyquist mask."""
    # A true extra delay behaves exactly like extra distance for FMCW.
    effective = packed.distances + chirp.delay_to_distance(packed.extra_delays_s)
    beat = (np.asarray(chirp.distance_to_beat_frequency(effective))
            + packed.beat_offsets_hz)
    carrier = (np.asarray(chirp.carrier_phase(effective))
               + packed.phase_offsets)
    # Strict inequality: a tone exactly at Nyquist is dropped, as the
    # reference loop drops it.
    keep = np.abs(beat) < chirp.sample_rate / 2.0
    return beat, carrier, keep


def _contract_frame(amplitudes: np.ndarray, beat: np.ndarray,
                    carrier: np.ndarray, steering: np.ndarray,
                    chirp: ChirpConfig) -> np.ndarray:
    """Sum all component tones into one ``(K, N)`` frame.

    ``steering`` is the complex arrival phasor matrix ``(K, C)``. The tone
    phases advance by ``theta_c = 2 pi f_c / fs`` per sample, so with the
    block split ``n = b*B + m`` the frame is

        frame[k, b*B + m] = sum_c steering[k, c] * A_c
                            * exp(j theta_c b B) * exp(j theta_c m)

    i.e. a ``(K*num_blocks, C) @ (C, B)`` matmul over precomputed block and
    base exponentials, trimmed back to ``N`` samples.
    """
    num_samples = chirp.num_samples
    theta = (2.0 * np.pi / chirp.sample_rate) * beat
    block_len = max(int(np.ceil(np.sqrt(num_samples))), 1)
    num_blocks = -(-num_samples // block_len)

    base = np.exp(1j * theta[:, None] * np.arange(block_len)[None, :])
    block = np.exp(1j * theta[:, None]
                   * (np.arange(num_blocks) * block_len)[None, :])
    block *= (amplitudes * np.exp(1j * carrier))[:, None]

    num_antennas = steering.shape[0]
    weights = steering[:, None, :] * block.T[None, :, :]  # (K, blocks, C)
    frame = (weights.reshape(num_antennas * num_blocks, -1) @ base)
    return np.ascontiguousarray(
        frame.reshape(num_antennas, num_blocks * block_len)[:, :num_samples]
    )


def _contract_frames_batched(amplitudes: np.ndarray, beat: np.ndarray,
                             carrier: np.ndarray, steering: np.ndarray,
                             chirp: ChirpConfig) -> np.ndarray:
    """Contract a stack of equal-component-count frames, ``(F, K, N)``.

    The batched form of :func:`_contract_frame`: inputs carry a leading
    frame axis (``amplitudes``/``beat``/``carrier`` are ``(F, C)``,
    ``steering`` is ``(F, K, C)``) and the per-frame matmul becomes one
    stacked ``(F, K*num_blocks, C) @ (F, C, B)`` call. Every elementwise
    op computes the same scalars as the per-frame kernel and each matmul
    slice is the identical GEMM (same shapes, same contiguous layout), so
    the stack is bitwise equal to ``F`` separate ``_contract_frame`` calls
    — the batching only removes per-frame dispatch overhead.
    """
    num_samples = chirp.num_samples
    num_frames, num_antennas = steering.shape[0], steering.shape[1]
    theta = (2.0 * np.pi / chirp.sample_rate) * beat
    block_len = max(int(np.ceil(np.sqrt(num_samples))), 1)
    num_blocks = -(-num_samples // block_len)

    base = np.exp(1j * theta[:, :, None] * np.arange(block_len)[None, None, :])
    block = np.exp(1j * theta[:, :, None]
                   * (np.arange(num_blocks) * block_len)[None, None, :])
    block *= (amplitudes * np.exp(1j * carrier))[:, :, None]

    # (F, K, 1, C) * (F, 1, num_blocks, C) -> (F, K, num_blocks, C)
    weights = steering[:, :, None, :] * block.transpose(0, 2, 1)[:, None, :, :]
    frames = weights.reshape(num_frames, num_antennas * num_blocks, -1) @ base
    return np.ascontiguousarray(
        frames.reshape(num_frames, num_antennas,
                       num_blocks * block_len)[:, :, :num_samples]
    )


def synthesize_frame(
        components: Sequence[PathComponent] | PackedComponents,
        config: RadarConfig, array: UniformLinearArray,
        rng: np.random.Generator | None = None) -> np.ndarray:
    """Synthesize one frame of beat samples for all antennas.

    Args:
        components: propagation paths visible in this chirp (a list or
            their packed form).
        config: radar configuration (chirp, noise, array size).
        array: array geometry supplying the per-antenna arrival phases.
        rng: random generator for thermal noise; ``None`` disables noise.

    Returns:
        Complex array of shape ``(num_antennas, num_samples)``.
    """
    packed = (components if isinstance(components, PackedComponents)
              else pack_components(components))
    if len(packed) == 0:
        frame = np.zeros((config.num_antennas, config.chirp.num_samples),
                         dtype=complex)
        record_synthesis(1, 0, 0)
    else:
        beat, carrier, keep = _beat_and_carrier(packed, config.chirp)
        steering = np.exp(
            1j * array.arrival_phase_matrix(packed.angles[keep])
        )
        frame = _contract_frame(packed.amplitudes[keep], beat[keep],
                                carrier[keep], steering, config.chirp)
        record_synthesis(1, len(packed),
                         int(len(packed) - np.count_nonzero(keep)))
    if rng is not None and config.noise_std > 0:
        frame = frame + thermal_noise(config.noise_std, rng,
                                      np.empty_like(frame))
    return frame


def synthesize_frames(components_per_frame: Sequence[Sequence[PathComponent]],
                      config: RadarConfig, array: UniformLinearArray,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Synthesize a whole sweep of frames at once, ``(F, K, N)``.

    Packs the per-frame component lists and runs :func:`synthesize_packed`.
    Noise, when requested, is drawn frame-by-frame in sweep order so the
    generator stream matches ``F`` successive single-frame calls exactly.
    """
    counts = np.array([len(c) for c in components_per_frame], dtype=np.int64)
    rows = _pack_rows([c for frame in components_per_frame for c in frame])
    frames = synthesize_packed(rows, counts, config, array)
    if rng is not None and config.noise_std > 0:
        noise = np.empty(frames.shape[1:], dtype=complex)
        for frame in frames:
            frame += thermal_noise(config.noise_std, rng, noise)
    return frames


def synthesize_packed(columns: np.ndarray, counts: np.ndarray,
                      config: RadarConfig, array: UniformLinearArray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Synthesize packed components of a whole sweep, ``(F, K, N)``.

    ``columns`` is the ``(6, C)`` packed form emitted by
    :mod:`repro.radar.emit` (rows in ``PathComponent`` field order) and
    ``counts`` the per-frame component counts. Beat frequencies, phases,
    and steering phasors are computed in a single broadcasted pass, then
    contracted frame-by-frame (components arrive grouped by frame, so each
    frame is one contiguous matmul slice). With ``out`` (e.g. an emitted
    noise cube) the tones are added into it in place; otherwise they land
    in a fresh zero cube.
    """
    num_frames = counts.shape[0]
    dropped = 0
    fresh = out is None
    if out is None:
        out = np.zeros((num_frames, config.num_antennas,
                        config.chirp.num_samples), dtype=complex)
    if columns.shape[1]:
        packed = PackedComponents(*columns)
        beat, carrier, keep = _beat_and_carrier(packed, config.chirp)
        # Zero the amplitude of dropped tones instead of slicing them out:
        # frame boundaries stay intact, so each frame below is a plain
        # contiguous slice, and a zero-amplitude tone contributes exact
        # zeros just like the reference loop's `continue`.
        amplitudes = np.where(keep, packed.amplitudes, 0.0)
        steering = np.exp(1j * array.arrival_phase_matrix(packed.angles))

        # Frames with equal component counts share one stacked contraction:
        # each matmul slice is the identical GEMM a per-frame call would
        # run, so grouping only removes per-frame dispatch overhead.
        starts = np.concatenate(([0], np.cumsum(counts)))
        groups: dict[int, list[int]] = {}
        for f, count in enumerate(counts.tolist()):
            if count:
                groups.setdefault(count, []).append(f)
        for count, frame_ids in groups.items():
            # (F_g, C) gather indices into the flat component batch.
            index = (starts[frame_ids][:, None]
                     + np.arange(count)[None, :])
            tones = _contract_frames_batched(
                amplitudes[index], beat[index], carrier[index],
                steering[:, index].transpose(1, 0, 2), config.chirp)
            if fresh:
                out[frame_ids] = tones
            else:
                out[frame_ids] += tones
        dropped = int(np.count_nonzero(~keep))
    record_synthesis(num_frames, int(counts.sum()), dropped)
    return out
