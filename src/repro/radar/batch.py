"""Batched, vectorized beat-frame synthesis: the Synthesize kernel.

The reference kernel (a test oracle, ``tests/receive_oracle.py``) loops over
:class:`~repro.radar.frontend.PathComponent`s in Python and materializes one
``(K, N)`` outer product per component. :func:`synthesize_packed` takes a
whole sweep's components as the packed ``(6, C)`` columns Emit writes (rows
named in :mod:`repro.radar.emit`) and synthesizes all antennas x samples x
components in one broadcasted contraction:

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

import numpy as np

from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.emit import (
    AMPLITUDE,
    ANGLE,
    BEAT_OFFSET,
    DISTANCE,
    EXTRA_DELAY,
    PHASE_OFFSET,
)
from repro.radar.frontend import record_synthesis
from repro.signal.chirp import ChirpConfig

__all__ = ["synthesize_packed"]


def _beat_and_carrier(columns: np.ndarray, chirp: ChirpConfig,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-component beat frequency, total tone phase, and Nyquist mask."""
    # A true extra delay behaves exactly like extra distance for FMCW.
    effective = (columns[DISTANCE]
                 + chirp.delay_to_distance(columns[EXTRA_DELAY]))
    beat = (np.asarray(chirp.distance_to_beat_frequency(effective))
            + columns[BEAT_OFFSET])
    carrier = (np.asarray(chirp.carrier_phase(effective))
               + columns[PHASE_OFFSET])
    # Strict inequality: a tone exactly at Nyquist is dropped, as the
    # reference loop drops it.
    keep = np.abs(beat) < chirp.sample_rate / 2.0
    return beat, carrier, keep


def _contract_frames_batched(amplitudes: np.ndarray, beat: np.ndarray,
                             carrier: np.ndarray, steering: np.ndarray,
                             chirp: ChirpConfig) -> np.ndarray:
    """Contract a stack of equal-component-count frames, ``(F, K, N)``.

    ``amplitudes``/``beat``/``carrier`` are ``(F, C)`` and ``steering``,
    the complex arrival phasors, ``(F, K, C)``. The tone phases advance by
    ``theta_c = 2 pi f_c / fs`` per sample, so with the block split
    ``n = b*B + m`` each frame is

        frame[k, b*B + m] = sum_c steering[k, c] * A_c
                            * exp(j theta_c b B) * exp(j theta_c m)

    i.e. one stacked ``(F, K*num_blocks, C) @ (F, C, B)`` matmul over
    precomputed block and base exponentials, trimmed back to ``N``
    samples. Each matmul slice is the GEMM a lone frame of that
    component count runs (same shapes, same contiguous layout), so a
    frame's bits do not depend on the frames stacked with it.
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


def synthesize_packed(columns: np.ndarray, counts: np.ndarray,
                      config: RadarConfig, array: UniformLinearArray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Synthesize packed components of a whole sweep, ``(F, K, N)``.

    ``columns`` is the ``(6, C)`` packed form emitted by
    :mod:`repro.radar.emit` (rows named by its row constants) and
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
        beat, carrier, keep = _beat_and_carrier(columns, config.chirp)
        # Zero the amplitude of dropped tones instead of slicing them out:
        # frame boundaries stay intact, so each frame below is a plain
        # contiguous slice, and a zero-amplitude tone contributes exact
        # zeros just like the reference loop's `continue`.
        amplitudes = np.where(keep, columns[AMPLITUDE], 0.0)
        steering = np.exp(1j * array.arrival_phase_matrix(columns[ANGLE]))

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
