"""Tests for repro.signal.detection and repro.signal.filtering."""

import numpy as np
import pytest

from repro.errors import SignalProcessingError
from repro.signal import (
    detect_peaks_2d,
    median_filter,
    moving_average,
    reject_outliers,
    smooth_trajectory,
)


class TestDetectPeaks2d:
    def _map_with_peaks(self, *peaks):
        grid = np.zeros((40, 40))
        for row, col, value in peaks:
            grid[row, col] = value
        return grid

    def test_finds_single_peak(self):
        grid = self._map_with_peaks((10, 20, 5.0))
        peaks = detect_peaks_2d(grid, threshold=1.0)
        assert len(peaks) == 1
        assert (peaks[0].range_index, peaks[0].angle_index) == (10, 20)
        assert peaks[0].power == pytest.approx(5.0)

    def test_threshold_excludes_weak(self):
        grid = self._map_with_peaks((10, 20, 5.0), (30, 5, 0.5))
        peaks = detect_peaks_2d(grid, threshold=1.0)
        assert len(peaks) == 1

    def test_orders_strongest_first(self):
        grid = self._map_with_peaks((10, 10, 3.0), (30, 30, 7.0))
        peaks = detect_peaks_2d(grid, threshold=1.0,
                                sidelobe_rejection_db=None)
        assert peaks[0].power == pytest.approx(7.0)

    def test_angle_sidelobe_rejected_same_range_ring(self):
        # Weak peak at the same range, offset angle: classic beamforming
        # sidelobe -> rejected.
        grid = self._map_with_peaks((10, 10, 100.0), (10, 25, 1.0))
        peaks = detect_peaks_2d(grid, threshold=0.5,
                                sidelobe_rejection_db=12.0)
        assert len(peaks) == 1

    def test_comparable_target_same_range_survives(self):
        grid = self._map_with_peaks((10, 10, 100.0), (10, 25, 50.0))
        peaks = detect_peaks_2d(grid, threshold=0.5,
                                sidelobe_rejection_db=12.0)
        assert len(peaks) == 2

    def test_range_sidelobe_rejected_same_angle(self):
        # Very weak peak at the same angle, offset range: range-FFT window
        # sidelobe -> rejected.
        grid = self._map_with_peaks((10, 10, 100.0), (14, 10, 0.6))
        peaks = detect_peaks_2d(grid, threshold=0.5,
                                sidelobe_rejection_db=12.0,
                                range_sidelobe_rejection_db=20.0)
        assert len(peaks) == 1

    def test_distinct_targets_far_apart_both_found(self):
        grid = self._map_with_peaks((5, 5, 100.0), (30, 30, 0.8))
        peaks = detect_peaks_2d(grid, threshold=0.5)
        assert len(peaks) == 2

    def test_max_peaks(self):
        grid = self._map_with_peaks((5, 5, 5.0), (15, 30, 4.0), (30, 10, 3.0))
        peaks = detect_peaks_2d(grid, threshold=0.5, max_peaks=2,
                                sidelobe_rejection_db=None)
        assert len(peaks) == 2

    def test_rejects_non_2d(self):
        with pytest.raises(SignalProcessingError):
            detect_peaks_2d(np.zeros(10), threshold=1.0)

    def test_tiny_map_returns_empty(self):
        assert detect_peaks_2d(np.zeros((2, 2)), threshold=0.0) == []


class TestMovingAverage:
    def test_constant_signal_unchanged(self):
        values = np.full(10, 3.0)
        assert moving_average(values, 5) == pytest.approx(values)

    def test_window_one_is_identity(self):
        values = np.arange(6.0)
        assert moving_average(values, 1) == pytest.approx(values)

    def test_shrinks_at_edges(self):
        values = np.array([0.0, 0.0, 9.0, 0.0, 0.0])
        smoothed = moving_average(values, 3)
        assert smoothed[0] == pytest.approx(0.0)  # edge mean of [0, 0]
        assert smoothed[2] == pytest.approx(3.0)

    def test_2d_input(self):
        values = np.column_stack([np.arange(8.0), np.arange(8.0) * 2])
        smoothed = moving_average(values, 3)
        assert smoothed.shape == values.shape
        # Linear signals are fixed points of centered averaging (interior).
        assert smoothed[3] == pytest.approx(values[3])

    def test_rejects_empty(self):
        with pytest.raises(SignalProcessingError):
            moving_average(np.empty(0), 3)


class TestMedianFilter:
    def test_removes_single_spike(self):
        values = np.array([1.0, 1.0, 50.0, 1.0, 1.0])
        filtered = median_filter(values, 3)
        assert filtered[2] == pytest.approx(1.0)

    def test_window_one_is_identity(self):
        values = np.array([3.0, 1.0, 2.0])
        assert median_filter(values, 1) == pytest.approx(values)


class TestRejectOutliers:
    def test_replaces_teleport(self):
        positions = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [0.2, 0.0]])
        cleaned = reject_outliers(positions, max_jump=1.0)
        assert cleaned[2] == pytest.approx([0.1, 0.0])

    def test_keeps_plausible_motion(self):
        positions = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.1]])
        cleaned = reject_outliers(positions, max_jump=1.0)
        assert cleaned == pytest.approx(positions)

    def test_rejects_bad_max_jump(self):
        with pytest.raises(SignalProcessingError):
            reject_outliers(np.zeros((3, 2)), max_jump=0.0)


class TestSmoothTrajectory:
    def test_preserves_shape(self):
        positions = np.column_stack([np.linspace(0, 5, 30),
                                     np.linspace(0, 2, 30)])
        smoothed = smooth_trajectory(positions, window=5)
        assert smoothed.shape == positions.shape

    def test_reduces_noise_variance(self, rng):
        clean = np.column_stack([np.linspace(0, 5, 100),
                                 np.zeros(100)])
        noisy = clean + rng.normal(0, 0.2, clean.shape)
        smoothed = smooth_trajectory(noisy, window=7)
        noisy_error = np.linalg.norm(noisy - clean, axis=1).mean()
        smooth_error = np.linalg.norm(smoothed - clean, axis=1).mean()
        assert smooth_error < noisy_error / 1.5
