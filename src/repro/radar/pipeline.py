"""Batched receive processing: whole beat cubes -> range-angle map stacks.

The reference receive path (a test oracle, ``tests/receive_oracle.py``)
handles one frame at a time: range-FFT its antennas, subtract the previous
frame's profile, then beamform (Eq. 2) across the angle grid. Looping that
over a sweep pays the Python dispatch, the window/steering/range-axis
recomputation, and many small BLAS calls once *per frame*.

This module processes the whole ``(F, K, N)`` beat cube that
:func:`~repro.radar.batch.synthesize_packed` writes in three cube-wide
passes:

1. **Range FFT** — one windowed ``np.fft.fft`` over the full cube (in
   cache-sized frame blocks) yields every frame's complex range profiles
   ``(F, K, B)`` at once.
2. **Background subtraction** — the paper's successive-frame subtraction is
   a single shifted difference on the (cropped) profile cube — frame 0
   subtracts to zero, matching the reference path's one-frame warmup.
3. **Beamforming** — Eq. 2 for all frames via the lag-domain identity:
   per-bin spatial autocorrelation lags, then one thin real GEMM per
   request against the lag basis fetched from the process-wide memo
   (:mod:`repro.radar.antenna`), writing a contiguous ``(F, B, A)`` power
   cube whose per-frame slices back a result's
   :class:`~repro.radar.processing.RangeAngleProfile` views.

The stage kernels that run these passes, and the result they fill, live
in :mod:`repro.radar.stages`.

Stage by stage, the arithmetic is either identical to the reference
loop's (FFT, subtraction) or an exact algebraic regrouping of it
(lag-domain Eq. 2), so the two agree to ``atol=1e-10``
(``tests/test_pipeline_equivalence.py`` pins this).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalProcessingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.processing import ZERO_PAD_FACTOR
from repro.signal.spectral import range_fft

__all__ = [
    "batched_background_subtract",
    "batched_lag_vectors",
    "batched_range_profiles",
    "beamform_from_lags_stacked",
]

#: Working-set ceiling (bytes) for the blocked cube passes. Blocks of this
#: size keep each pass's operands L2-resident on small hosts while staying
#: large enough that loop/BLAS dispatch overhead is negligible.
_CHUNK_BYTES = 1 << 22


def batched_range_profiles(frames: np.ndarray,
                           config: RadarConfig) -> np.ndarray:
    """Complex range profiles for a whole sweep, shape ``(F, K, B)``.

    One windowed FFT over the full beat cube — numpy applies the identical
    1-D transform along the last axis, so each frame's profiles match a
    per-frame transform bit for bit.
    """
    cube = np.asarray(frames)
    if cube.ndim != 3 or cube.shape[1] != config.num_antennas:
        raise SignalProcessingError(
            f"beat cube must be (num_frames, num_antennas, num_samples), "
            f"got {cube.shape}"
        )
    num_frames, num_antennas, _ = cube.shape
    n_bins = config.chirp.num_samples * ZERO_PAD_FACTOR // 2
    # Transform in frame blocks sized so each block's windowed input and
    # spectrum stay cache-resident — one giant FFT over a multi-ten-MB cube
    # thrashes, while the per-block transforms are identical 1-D FFTs and
    # land bit-for-bit in the preallocated output.
    block = max(1, _CHUNK_BYTES // (num_antennas * n_bins * 16))
    if block >= num_frames:
        return range_fft(cube, config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)
    out = np.empty((num_frames, num_antennas, n_bins), dtype=np.complex128)
    for start in range(0, num_frames, block):
        stop = min(start + block, num_frames)
        out[start:stop] = range_fft(cube[start:stop], config.chirp,
                                    zero_pad_factor=ZERO_PAD_FACTOR)
    return out


def batched_background_subtract(profile_cube: np.ndarray) -> np.ndarray:
    """Successive-frame subtraction as one shifted difference, ``(F, ...)``.

    Frame ``f`` becomes ``cube[f] - cube[f - 1]``; frame 0 has nothing to
    subtract and is zero: the pipeline's one-frame warmup.
    """
    cube = np.asarray(profile_cube)
    if cube.ndim < 1 or cube.shape[0] < 1:
        raise SignalProcessingError(
            f"profile cube needs a leading frame axis, got shape {cube.shape}"
        )
    subtracted = np.zeros_like(cube)
    subtracted[1:] = cube[1:] - cube[:-1]
    return subtracted


def batched_lag_vectors(subtracted_cube: np.ndarray,
                        array: UniformLinearArray, *,
                        taper: str | None = "hamming") -> np.ndarray:
    """Per-cell spatial-autocorrelation lags for a whole cube, ``(F*B, 2K-1)``.

    The first half of lag-domain Eq. 2 (see
    :func:`beamform_from_lags_stacked`). Every row is computed
    independently of every other row, so several requests' subtracted
    cubes stacked along the frame axis give, row for row, exactly the
    values a per-request call would produce.
    """
    cube = np.asarray(subtracted_cube)
    if cube.ndim != 3 or cube.shape[1] != array.num_antennas:
        raise SignalProcessingError(
            f"profile cube must be (num_frames, {array.num_antennas}, "
            f"num_bins), got {cube.shape}"
        )
    num_frames, num_antennas, num_bins = cube.shape
    rows = num_frames * num_bins

    # Tapered signals, laid out (F*B, K) so the lag products and the GEMM
    # stream along contiguous rows.
    flat = np.ascontiguousarray(cube.transpose(0, 2, 1)).reshape(-1, num_antennas)
    tapered = flat * array.taper_weights(taper)

    # Per-row lag vector [R_0 | Re R_1..R_{K-1} | Im R_1..R_{K-1}],
    # matching the basis's row order.
    lag_vectors = np.empty((rows, 2 * num_antennas - 1), dtype=np.float64)
    lag_vectors[:, 0] = np.einsum("rk,rk->r", tapered.real, tapered.real)
    lag_vectors[:, 0] += np.einsum("rk,rk->r", tapered.imag, tapered.imag)
    for m in range(1, num_antennas):
        lag = np.einsum("rk,rk->r", tapered[:, m:],
                        np.conj(tapered[:, :num_antennas - m]))
        lag_vectors[:, m] = lag.real
        lag_vectors[:, num_antennas - 1 + m] = lag.imag
    return lag_vectors


def beamform_from_lags_stacked(lag_stack: np.ndarray,
                               array: UniformLinearArray,
                               angles: np.ndarray) -> np.ndarray:
    """Eq. 2 power for a stack of equal-row-count lag blocks, ``(S, rows, A)``.

    Rather than contracting every (frame, bin) vector against all ``A``
    steering vectors and squaring (``28 A`` real MACs per map cell), a
    sweep is beamformed in the *lag domain*. The element-``k`` steering
    phase is ``k * c(theta)``, linear in ``k``, so Eq. 2 factors through
    the spatial autocorrelation of the tapered signals ``g = w * h``:

        P(theta) = R_0 + 2 sum_m [Re R_m cos(m c) + Im R_m sin(m c)]

    with ``R_m = sum_l g_{l+m} conj(g_l)`` the lag-``m`` autocorrelation
    (``m = 1 .. K-1``, from :func:`batched_lag_vectors`). The lags cost
    ``O(K^2)`` per bin *once*, and the whole angle sweep collapses into a
    thin real GEMM ``(rows, 2K-1) @ (2K-1, A)`` against the memoized lag
    basis (:meth:`~repro.radar.antenna.UniformLinearArray.lag_power_basis`,
    which folds the factor 2 and the ``R_0`` ones-row into the plane) —
    ~13 real MACs per map cell for K = 7 instead of 28, producing real
    power directly with no complex intermediate and no post-passes. The
    expansion is an exact algebraic identity, so the result matches the
    textbook ``|steering @ h|^2`` to a few ulp (well inside the pinned
    1e-10 budget).

    Each stack slice runs the identical GEMM a standalone call would, so
    requests with equal row counts share one stacked matmul and every
    request's power map stays bitwise independent of how many batch-mates
    it shared the stack with; a lone request passes a ``[None]`` view of
    its lag block.
    """
    lags = np.asarray(lag_stack)
    expected = 2 * array.num_antennas - 1
    if lags.ndim != 3 or lags.shape[2] != expected:
        raise SignalProcessingError(
            f"stacked lag vectors must be (stack, rows, {expected}), "
            f"got {lags.shape}"
        )
    num_angles = int(np.asarray(angles).shape[0])
    basis = array.lag_power_basis(np.asarray(angles, dtype=float))
    power = np.empty((lags.shape[0], lags.shape[1], num_angles),
                     dtype=np.float64)
    np.matmul(lags, basis, out=power)
    return power
