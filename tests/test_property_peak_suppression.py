"""Property tests pinning the vectorized greedy peak suppression.

``find_spectral_peaks`` and ``detect_peaks_2d`` replaced their quadratic
"test every candidate against every accepted peak" loops with blocked-mask
stamping and running power-floor arrays. These tests re-implement the
original O(P^2) acceptance loops verbatim and assert, over randomized
spectra and maps (including heavy ties), that the shipped functions return
exactly the same peaks in the same order. The 2-D reference also keeps the
original eight neighbour comparisons, so the maps include NaN, +-inf and
-0.0 cells, NaN thresholds, and tall maps whose above-threshold rows are
sparse or sit on the first or last interior row: the cases where the
shipped band-limited box-maximum mask could part from it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.signal.detection import PeakDetection, detect_peaks_2d
from repro.signal.spectral import find_spectral_peaks

_settings = settings(max_examples=60, deadline=None)

# Integer-valued power levels on a coarse grid force frequent ties, the
# regime where an order-dependent rewrite would diverge first.
spectra = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(3, 64),
    elements=st.integers(0, 30).map(float),
)

#: Map cells: mostly tie-heavy integers, ~1 in 11 a special value whose
#: comparisons a rewritten mask must get right (NaN compares false both
#: ways; -0.0 ties +0.0; infinities tie each other).
SPECIAL_CELLS = (np.nan, np.inf, -np.inf, -0.0)
map_cells = st.integers(0, 44).map(
    lambda k: float(k) if k <= 40 else SPECIAL_CELLS[k - 41])

power_maps = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 14), st.integers(3, 14)),
    elements=map_cells,
)

thresholds = st.one_of(st.integers(0, 25).map(float),
                       st.sampled_from([np.nan, -np.inf, np.inf, -0.0]))


@st.composite
def tall_sparse_maps(draw):
    """Tall maps whose above-threshold cells sit on a few sparse rows.

    The background stays at or below 4 and the threshold is 4, so only
    the hot rows hold candidates; the first and last interior rows (and
    the borders) are forced hot often, the edges of the row band a
    band-limited mask must get right.
    """
    num_rows = draw(st.integers(3, 90))
    num_cols = draw(st.integers(3, 12))
    grid = draw(hnp.arrays(np.float64, (num_rows, num_cols),
                           elements=st.integers(0, 4).map(float),
                           fill=st.just(1.0)))
    hot = set(draw(st.lists(st.integers(0, num_rows - 1), max_size=3)))
    edges = draw(st.sampled_from(["none", "first", "last", "both",
                                  "borders"]))
    if edges in ("first", "both"):
        hot.add(1)
    if edges in ("last", "both"):
        hot.add(num_rows - 2)
    if edges == "borders":
        hot.update((0, num_rows - 1))
    for row in sorted(hot):
        grid[row] = draw(hnp.arrays(np.float64, num_cols, elements=map_cells))
    return grid


def reference_find_spectral_peaks(power, *, min_height=0.0, min_separation=1,
                                  max_peaks=None):
    """The pre-vectorization quadratic acceptance loop, verbatim."""
    spectrum = np.asarray(power, dtype=float)
    if spectrum.size < 3:
        return []
    interior = spectrum[1:-1]
    is_peak = (interior > spectrum[:-2]) & (interior >= spectrum[2:])
    candidates = np.nonzero(is_peak & (interior >= min_height))[0] + 1
    order = candidates[np.argsort(spectrum[candidates])[::-1]]
    accepted = []
    for idx in order:
        if all(abs(idx - kept) >= min_separation for kept in accepted):
            accepted.append(int(idx))
            if max_peaks is not None and len(accepted) >= max_peaks:
                break
    return accepted


def reference_detect_peaks_2d(power_map, *, threshold, max_peaks=None,
                              min_range_separation=1, min_angle_separation=1,
                              sidelobe_rejection_db=12.0,
                              sidelobe_range_bins=3,
                              range_sidelobe_rejection_db=20.0,
                              range_sidelobe_angle_bins=5):
    """The pre-vectorization quadratic acceptance loop, verbatim."""
    grid = np.asarray(power_map, dtype=float)
    if grid.shape[0] < 3 or grid.shape[1] < 3:
        return []
    center = grid[1:-1, 1:-1]
    is_max = np.ones_like(center, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbour = grid[1 + dr: grid.shape[0] - 1 + dr,
                             1 + dc: grid.shape[1] - 1 + dc]
            is_max &= center >= neighbour
    rows, cols = np.nonzero(is_max & (center > threshold))
    rows = rows + 1
    cols = cols + 1

    sidelobe_ratio = None
    range_sidelobe_ratio = None
    if sidelobe_rejection_db is not None:
        sidelobe_ratio = 10.0 ** (-sidelobe_rejection_db / 10.0)
        range_sidelobe_ratio = 10.0 ** (-range_sidelobe_rejection_db / 10.0)

    order = np.argsort(grid[rows, cols])[::-1]
    accepted = []
    for k in order:
        r, c = int(rows[k]), int(cols[k])
        power = float(grid[r, c])
        clash = any(
            abs(r - p.range_index) < min_range_separation
            and abs(c - p.angle_index) < min_angle_separation
            for p in accepted
        )
        if not clash and sidelobe_ratio is not None:
            clash = any(
                (abs(r - p.range_index) <= sidelobe_range_bins
                 and power < p.power * sidelobe_ratio)
                or (abs(c - p.angle_index) <= range_sidelobe_angle_bins
                    and power < p.power * range_sidelobe_ratio)
                for p in accepted
            )
        if clash:
            continue
        accepted.append(PeakDetection(r, c, power))
        if max_peaks is not None and len(accepted) >= max_peaks:
            break
    return accepted


class TestSpectralPeakParity:
    @_settings
    @given(spectrum=spectra,
           min_separation=st.integers(1, 12),
           min_height=st.integers(0, 20).map(float),
           max_peaks=st.one_of(st.none(), st.integers(1, 6)))
    def test_matches_quadratic_reference(self, spectrum, min_separation,
                                         min_height, max_peaks):
        ours = find_spectral_peaks(spectrum, min_height=min_height,
                                   min_separation=min_separation,
                                   max_peaks=max_peaks)
        reference = reference_find_spectral_peaks(
            spectrum, min_height=min_height, min_separation=min_separation,
            max_peaks=max_peaks)
        assert ours == reference


def assert_same_peaks(grid, **kwargs):
    ours = detect_peaks_2d(grid, **kwargs)
    reference = reference_detect_peaks_2d(grid, **kwargs)
    # float.hex keeps the sign of zero that == would ignore.
    assert ([(p.range_index, p.angle_index, p.power.hex()) for p in ours]
            == [(p.range_index, p.angle_index, p.power.hex())
                for p in reference])


class TestPeak2dParity:
    @settings(max_examples=150, deadline=None)
    @given(grid=power_maps,
           threshold=thresholds,
           min_range_separation=st.integers(1, 5),
           min_angle_separation=st.integers(1, 5),
           max_peaks=st.one_of(st.none(), st.integers(1, 5)),
           sidelobe_rejection_db=st.one_of(st.none(),
                                           st.floats(1.0, 30.0)),
           sidelobe_range_bins=st.integers(0, 5),
           range_sidelobe_rejection_db=st.floats(1.0, 30.0),
           range_sidelobe_angle_bins=st.integers(0, 6))
    def test_matches_quadratic_reference(self, grid, threshold,
                                         min_range_separation,
                                         min_angle_separation, max_peaks,
                                         sidelobe_rejection_db,
                                         sidelobe_range_bins,
                                         range_sidelobe_rejection_db,
                                         range_sidelobe_angle_bins):
        kwargs = dict(
            threshold=threshold,
            max_peaks=max_peaks,
            min_range_separation=min_range_separation,
            min_angle_separation=min_angle_separation,
            sidelobe_rejection_db=sidelobe_rejection_db,
            sidelobe_range_bins=sidelobe_range_bins,
            range_sidelobe_rejection_db=range_sidelobe_rejection_db,
            range_sidelobe_angle_bins=range_sidelobe_angle_bins,
        )
        assert_same_peaks(grid, **kwargs)

    @settings(max_examples=100, deadline=None)
    @given(grid=tall_sparse_maps(),
           threshold=st.sampled_from([4.0, np.nan]),
           max_peaks=st.one_of(st.none(), st.integers(1, 5)),
           min_range_separation=st.integers(1, 4),
           sidelobe_rejection_db=st.one_of(st.none(), st.floats(1.0, 30.0)))
    def test_sparse_band_matches_quadratic_reference(
            self, grid, threshold, max_peaks, min_range_separation,
            sidelobe_rejection_db):
        assert_same_peaks(grid, threshold=threshold, max_peaks=max_peaks,
                          min_range_separation=min_range_separation,
                          sidelobe_rejection_db=sidelobe_rejection_db)
