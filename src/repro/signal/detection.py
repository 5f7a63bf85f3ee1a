"""Detection utilities: the median noise floor and 2-D range-angle peaks.

The paper's processing pipeline (Sec. 9.1) extracts human reflections as
peaks in background-subtracted range-angle power profiles, with "smoothing
over time and peak rejection" on top. Detect thresholds each map at a
multiple of its median power (:func:`selection_median`) and picks 3x3
local maxima above that threshold (:func:`detect_peaks_2d`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import SignalProcessingError

__all__ = ["detect_peaks_2d", "PeakDetection", "selection_median"]


@dataclasses.dataclass(frozen=True)
class PeakDetection:
    """One detected peak in a range-angle power map."""

    range_index: int
    angle_index: int
    power: float


def selection_median(values: np.ndarray) -> np.floating:
    """``np.median(values)``, bit for bit, from one single-kth selection.

    After ``np.partition`` at ``h = n // 2`` the lower middle (even ``n``)
    is ``part[:h].max()``. ``np.median`` averages with ``np.mean``, whose
    sum starts at ``+0.0``, hence the ``+ 0.0``. NaN sorts into
    ``part[h:]``, and then ``np.median`` returns a NaN too.
    """
    flat = np.ravel(values)
    if flat.size == 0:
        raise SignalProcessingError("median of an empty map")
    half = flat.size // 2
    part = np.partition(flat, half)
    upper = part[half:]
    top = upper.max()
    if np.isnan(top):
        return top
    if flat.size % 2:
        return upper[0] + 0.0
    return (part[:half].max() + upper[0] + 0.0) / 2


def detect_peaks_2d(power_map: np.ndarray, *, threshold: float,
                    max_peaks: int | None = None,
                    min_range_separation: int = 1,
                    min_angle_separation: int = 1,
                    sidelobe_rejection_db: float | None = 12.0,
                    sidelobe_range_bins: int = 3,
                    range_sidelobe_rejection_db: float = 20.0,
                    range_sidelobe_angle_bins: int = 5) -> list[PeakDetection]:
    """Find local maxima above ``threshold`` in a (range x angle) power map.

    A cell is a candidate when it is >= all of its 8 neighbours and strictly
    above ``threshold``. Candidates are accepted strongest-first, suppressing
    any later candidate within the given index separations of an accepted one
    — the "peak rejection" step of the paper's pipeline.

    Two sidelobe-rejection rules (enabled by ``sidelobe_rejection_db``)
    remove the processing artifacts of a strong target:

    - *beamforming sidelobes* sit on the same range ring at offset angles: a
      candidate within ``sidelobe_range_bins`` rows of an accepted peak is
      rejected when at least ``sidelobe_rejection_db`` weaker;
    - *range-FFT (window) sidelobes* sit at the same angle at offset ranges:
      a candidate within ``range_sidelobe_angle_bins`` columns is rejected
      when at least ``range_sidelobe_rejection_db`` weaker.

    A real second target of comparable strength survives both rules.
    """
    grid = np.asarray(power_map, dtype=float)
    if grid.ndim != 2:
        raise SignalProcessingError(
            f"detect_peaks_2d expects a 2-D map, got shape {grid.shape}"
        )
    if grid.shape[0] < 3 or grid.shape[1] < 3:
        return []

    sidelobe_ratio = None
    range_sidelobe_ratio = None
    if sidelobe_rejection_db is not None:
        if sidelobe_rejection_db <= 0 or range_sidelobe_rejection_db <= 0:
            raise SignalProcessingError("sidelobe rejection dB must be positive")
        sidelobe_ratio = 10.0 ** (-sidelobe_rejection_db / 10.0)
        range_sidelobe_ratio = 10.0 ** (-range_sidelobe_rejection_db / 10.0)

    # A cell is >= all 8 neighbours iff it is >= its 3x3 box maximum (a NaN
    # fails both). The separable box maximum covers only the band of
    # interior rows that hold an above-threshold cell.
    above = (grid > threshold)[1:-1, 1:-1]
    band = np.flatnonzero(above.any(axis=1))
    if band.size == 0:
        return []
    lo, hi = int(band[0]), int(band[-1]) + 1
    rows_max = np.maximum(np.maximum(grid[lo:hi], grid[lo + 1:hi + 1]),
                          grid[lo + 2:hi + 2])
    box_max = np.maximum(np.maximum(rows_max[:, :-2], rows_max[:, 1:-1]),
                         rows_max[:, 2:])
    is_peak = above[lo:hi] & (grid[lo + 1:hi + 1, 1:-1] >= box_max)
    # Row-major candidates, as np.nonzero lists them, so the argsort below
    # breaks power ties the same way.
    rows, cols = np.divmod(np.flatnonzero(is_peak), box_max.shape[1])
    rows = rows + (lo + 1)
    cols = cols + 1

    # Strongest-first greedy acceptance, vectorized: instead of re-testing
    # every candidate against every accepted peak (O(P^2)), each accepted
    # peak stamps (a) its separation rectangle into a blocked-cell mask and
    # (b) its sidelobe power floor into per-row / per-column threshold
    # arrays. A candidate within ``sidelobe_range_bins`` rows of *some*
    # accepted peak is weaker than ``p.power * ratio`` for some such peak
    # iff it is below the running row-wise maximum of those floors, so the
    # thresholds reproduce the pairwise ``any(...)`` exactly.
    order = np.argsort(grid[rows, cols])[::-1]
    blocked = np.zeros(grid.shape, dtype=bool)
    row_floor = np.zeros(grid.shape[0], dtype=float)
    col_floor = np.zeros(grid.shape[1], dtype=float)
    accepted: list[PeakDetection] = []
    for k in order:
        r, c = int(rows[k]), int(cols[k])
        power = float(grid[r, c])
        clash = bool(blocked[r, c])
        if not clash and sidelobe_ratio is not None:
            clash = power < row_floor[r] or power < col_floor[c]
        if clash:
            continue
        accepted.append(PeakDetection(r, c, power))
        if max_peaks is not None and len(accepted) >= max_peaks:
            break
        blocked[max(r - min_range_separation + 1, 0): r + min_range_separation,
                max(c - min_angle_separation + 1, 0): c + min_angle_separation,
                ] = True
        if sidelobe_ratio is not None:
            assert range_sidelobe_ratio is not None
            row_lo = max(r - sidelobe_range_bins, 0)
            row_slice = slice(row_lo, r + sidelobe_range_bins + 1)
            np.maximum(row_floor[row_slice], power * sidelobe_ratio,
                       out=row_floor[row_slice])
            col_lo = max(c - range_sidelobe_angle_bins, 0)
            col_slice = slice(col_lo, c + range_sidelobe_angle_bins + 1)
            np.maximum(col_floor[col_slice], power * range_sidelobe_ratio,
                       out=col_floor[col_slice])
    return accepted
