"""Tests for repro.radar.config and repro.radar.antenna.

Eq. 2 beamforming is checked on its direct steering-matrix form, the
oracle the pipeline's lag-domain kernel is pinned to
(``tests/receive_oracle.py``).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.radar import RadarConfig, UniformLinearArray
from tests.receive_oracle import beamform


class TestRadarConfig:
    def test_defaults_match_paper(self):
        config = RadarConfig()
        assert config.num_antennas == 7
        assert config.angular_resolution == pytest.approx(np.pi / 7)

    def test_default_spacing_is_half_wavelength(self):
        config = RadarConfig()
        assert config.spacing == pytest.approx(config.chirp.wavelength / 2)

    def test_explicit_spacing_wins(self):
        config = RadarConfig(antenna_spacing=0.05)
        assert config.spacing == pytest.approx(0.05)

    @pytest.mark.parametrize("kwargs", [
        {"num_antennas": 1},
        {"frame_rate": 0.0},
        {"frame_rate": 1e5},       # frames would overlap the chirp
        {"noise_std": -1.0},
        {"angle_grid_points": 4},
        {"antenna_spacing": 0.0},
        {"min_range": -1.0},
        {"facing_angle": 0.0},     # parallel to the default array axis
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RadarConfig(**kwargs)

    def test_angle_grid_open_interval(self):
        grid = RadarConfig(angle_grid_points=100).angle_grid()
        assert grid.shape == (100,)
        assert grid[0] > 0.0
        assert grid[-1] < np.pi

    def test_frame_interval(self):
        assert RadarConfig(frame_rate=20.0).frame_interval == pytest.approx(0.05)


class TestArrayGeometry:
    def _array(self, **kwargs):
        defaults = dict(position=(5.0, 0.0), axis_angle=0.0,
                        facing_angle=np.pi / 2)
        defaults.update(kwargs)
        return UniformLinearArray(RadarConfig(**defaults))

    def test_element_positions_centered(self):
        array = self._array()
        elements = array.element_positions()
        assert elements.shape == (7, 2)
        assert elements.mean(axis=0) == pytest.approx([5.0, 0.0])
        spacing = np.linalg.norm(np.diff(elements, axis=0), axis=1)
        assert spacing == pytest.approx(np.full(6, array.spacing))

    def test_angle_to_broadside(self):
        array = self._array()
        # Directly in front (facing +y): angle from the +x axis is pi/2.
        assert array.angle_to(np.array([5.0, 3.0])) == pytest.approx(np.pi / 2)

    def test_angle_to_endfire(self):
        array = self._array()
        assert array.angle_to(np.array([9.0, 0.0])) == pytest.approx(0.0)
        assert array.angle_to(np.array([1.0, 0.0])) == pytest.approx(np.pi)

    def test_angle_rejects_coincident_point(self):
        with pytest.raises(ConfigurationError):
            self._array().angle_to(np.array([5.0, 0.0]))

    def test_polar_roundtrip_via_point_at(self):
        array = self._array()
        target = np.array([7.0, 4.0])
        distance, angle = array.polar_of(target)
        assert array.point_at(distance, angle) == pytest.approx(target)

    def test_point_at_picks_facing_side(self):
        array = self._array()
        point = array.point_at(3.0, np.pi / 2)
        assert point[1] > 0  # facing +y, never behind the wall

    def test_point_at_rejects_negative_distance(self):
        with pytest.raises(ConfigurationError):
            self._array().point_at(-1.0, 1.0)


class TestBeamforming:
    def _array(self):
        return UniformLinearArray(
            RadarConfig(position=(0.0, 0.0), axis_angle=0.0,
                        facing_angle=np.pi / 2)
        )

    def test_beamform_peaks_at_arrival_angle(self):
        array = self._array()
        for true_angle in (0.5, np.pi / 2, 2.2):
            signals = np.exp(1j * array.arrival_phases(true_angle))
            grid = np.linspace(0.05, np.pi - 0.05, 721)
            power = beamform(array, signals, grid, taper=None)
            measured = grid[int(np.argmax(power))]
            assert measured == pytest.approx(true_angle, abs=0.02)

    def test_taper_lowers_sidelobes(self):
        array = self._array()
        true_angle = np.pi / 2
        signals = np.exp(1j * array.arrival_phases(true_angle))
        grid = np.linspace(0.05, np.pi - 0.05, 721)

        def sidelobe_ratio(taper):
            power = beamform(array, signals, grid, taper=taper)
            main = power.max()
            away = np.abs(grid - true_angle) > 0.5
            return power[away].max() / main

        assert sidelobe_ratio("hamming") < sidelobe_ratio(None)

    def test_beamform_2d_signals(self):
        array = self._array()
        signals = np.ones((7, 16), dtype=complex)
        grid = np.linspace(0.1, np.pi - 0.1, 45)
        power = beamform(array, signals, grid)
        assert power.shape == (45, 16)

    def test_beamform_rejects_wrong_antenna_count(self):
        array = self._array()
        with pytest.raises(ConfigurationError):
            beamform(array, np.ones(5, dtype=complex),
                     np.linspace(0.1, 3.0, 8))

    def test_two_sources_both_resolved(self):
        array = self._array()
        a1, a2 = 1.0, 2.0  # separated well beyond pi/K
        signals = (np.exp(1j * array.arrival_phases(a1))
                   + np.exp(1j * array.arrival_phases(a2)))
        grid = np.linspace(0.05, np.pi - 0.05, 721)
        power = beamform(array, signals, grid, taper=None)
        threshold = power.max() * 0.5
        lobes = grid[power > threshold]
        assert np.any(np.abs(lobes - a1) < 0.15)
        assert np.any(np.abs(lobes - a2) < 0.15)
