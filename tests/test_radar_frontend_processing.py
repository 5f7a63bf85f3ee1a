"""Tests for frame synthesis and the per-frame receive reference.

These validate the core physics: a PathComponent at distance d produces a
range-FFT peak at d; a beat offset moves the *apparent* distance exactly as
Eq. 3 predicts; background subtraction kills statics and keeps movers. The
per-frame receive steps are the oracle the batched pipeline is pinned to
(``tests/receive_oracle.py``), so their physics is checked here directly.
Frames come from ``synthesize_packed``, the kernel every sense path runs,
through the oracle's packer.
"""

import numpy as np
import pytest

from repro.errors import SignalProcessingError
from repro.radar import PathComponent, RadarConfig, UniformLinearArray, synthesize_packed
from tests.receive_oracle import (
    background_subtract,
    compute_range_angle_map,
    frame_range_profiles,
    noise_cube,
    pack_frames,
)


@pytest.fixture()
def config():
    return RadarConfig(position=(0.0, 0.0), axis_angle=0.0,
                       facing_angle=np.pi / 2, noise_std=0.0)


@pytest.fixture()
def array(config):
    return UniformLinearArray(config)


def synthesize(components, config, array, rng=None):
    """One frame, ``(K, N)``, with noise when given ``rng``."""
    out = None if rng is None else noise_cube(config, rng, 1)
    return synthesize_packed(*pack_frames([components]), config, array,
                             out=out)[0]


def _peak_location(profile_map):
    index = np.unravel_index(np.argmax(profile_map.power), profile_map.power.shape)
    return (float(profile_map.ranges[index[0]]),
            float(profile_map.angles[index[1]]))


def _sense_one(components, config, array, max_range=20.0):
    frame = synthesize(components, config, array)
    profiles = frame_range_profiles(frame, config)
    return compute_range_angle_map(profiles, config, array, 0.0,
                                   max_range=max_range)


class TestPathComponent:
    def test_rejects_negative_distance(self):
        with pytest.raises(SignalProcessingError):
            PathComponent(-1.0, 1.0, 0.1)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(SignalProcessingError):
            PathComponent(1.0, 1.0, -0.1)


class TestSynthesizeFrame:
    def test_shape(self, config, array):
        frame = synthesize([PathComponent(3.0, 1.0, 0.1)], config, array)
        assert frame.shape == (7, config.chirp.num_samples)

    def test_empty_scene_without_noise_is_zero(self, config, array):
        frame = synthesize([], config, array)
        assert np.all(frame == 0)

    def test_noise_added_with_rng(self, config, array, rng):
        noisy_config = RadarConfig(position=(0.0, 0.0), facing_angle=np.pi / 2,
                                   noise_std=1e-3)
        frame = synthesize([], noisy_config, array, rng)
        rms = np.sqrt(np.mean(np.abs(frame) ** 2))
        assert rms == pytest.approx(1e-3, rel=0.05)

    def test_amplitude_superposition(self, config, array):
        c1 = PathComponent(3.0, 1.0, 0.1)
        c2 = PathComponent(5.0, 2.0, 0.05)
        both = synthesize([c1, c2], config, array)
        separate = (synthesize([c1], config, array)
                    + synthesize([c2], config, array))
        assert both == pytest.approx(separate)

    def test_beyond_nyquist_tone_dropped(self, config, array):
        far = PathComponent(200.0, 1.0, 1.0)  # beat above fs/2
        frame = synthesize([far], config, array)
        assert np.all(frame == 0)


class TestRangeAngleLocalization:
    def test_peak_at_true_polar_location(self, config, array):
        target = np.array([3.0, 4.0])
        distance, angle = array.polar_of(target)
        profile = _sense_one([PathComponent(distance, angle, 0.1)],
                             config, array)
        measured_range, measured_angle = _peak_location(profile)
        assert measured_range == pytest.approx(distance, abs=0.1)
        assert measured_angle == pytest.approx(angle, abs=0.05)

    def test_beat_offset_shifts_apparent_distance(self, config, array):
        """The heart of RF-Protect's Eq. 3 in the full pipeline."""
        physical = 1.3
        f_switch = float(config.chirp.switch_frequency_for_offset(3.0))
        component = PathComponent(physical, np.pi / 2, 0.1,
                                  beat_offset_hz=f_switch)
        profile = _sense_one([component], config, array)
        measured_range, _ = _peak_location(profile)
        assert measured_range == pytest.approx(physical + 3.0, abs=0.1)

    def test_min_range_blanks_near_field(self, config, array):
        near = PathComponent(0.3, np.pi / 2, 1.0)
        profile = _sense_one([near], config, array)
        assert profile.ranges[0] >= config.min_range
        # The strong near-field tone leaks only its windowed skirt.
        far_power = profile.power.max()
        direct = _sense_one([PathComponent(2.0, np.pi / 2, 1.0)],
                            config, array).power.max()
        assert far_power < direct / 10

    def test_max_range_crops(self, config, array):
        profile = _sense_one([PathComponent(3.0, 1.0, 0.1)], config, array,
                             max_range=8.0)
        assert profile.ranges[-1] <= 8.0


class TestBackgroundSubtraction:
    def test_first_frame_returns_zeros(self, config, array):
        frame = synthesize([PathComponent(3.0, 1.0, 0.1)], config, array)
        profiles = frame_range_profiles(frame, config)
        assert np.all(background_subtract(profiles, None) == 0)

    def test_static_cancels_exactly(self, config, array):
        component = PathComponent(4.0, 1.2, 0.2)
        frame = synthesize([component], config, array)
        profiles = frame_range_profiles(frame, config)
        subtracted = background_subtract(profiles, profiles)
        assert np.abs(subtracted).max() == pytest.approx(0.0, abs=1e-12)

    def test_mover_survives_subtraction(self, config, array):
        before = frame_range_profiles(
            synthesize([PathComponent(4.0, 1.2, 0.2)], config, array), config)
        after = frame_range_profiles(
            synthesize([PathComponent(4.08, 1.2, 0.2)], config, array), config)
        residual = background_subtract(after, before)
        assert np.abs(residual).max() > 0.01

    def test_shape_change_rejected(self, config, array):
        frame = synthesize([], config, array)
        profiles = frame_range_profiles(frame, config)
        with pytest.raises(SignalProcessingError):
            background_subtract(profiles, profiles[:, :-10])

    def test_frame_shape_validated(self, config):
        with pytest.raises(SignalProcessingError):
            frame_range_profiles(np.zeros((3, 100)), config)


class TestProfileHelpers:
    def test_peak_position_roundtrip(self, config, array):
        target = np.array([2.0, 5.0])
        distance, angle = array.polar_of(target)
        profile = _sense_one([PathComponent(distance, angle, 0.1)],
                             config, array)
        peaks = profile.detect(threshold=profile.power.max() / 10, max_peaks=1)
        assert len(peaks) == 1
        position = profile.peak_position(peaks[0], array)
        assert position == pytest.approx(target, abs=0.15)

    def test_total_power_positive_with_target(self, config, array):
        profile = _sense_one([PathComponent(3.0, 1.0, 0.1)], config, array)
        assert profile.total_power() > 0
