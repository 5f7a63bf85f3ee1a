"""Tests for the SensingResult API and FmcwRadar facade behavior."""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.geometry import Rectangle
from repro.radar import FmcwRadar, RadarConfig, Scene, StreamingTracker
from repro.radar.processing import ZERO_PAD_FACTOR, RangeAngleProfile
from repro.radar.scene import BreathingSpec
from repro.serve.app import build_demo_scene
from repro.signal.spectral import range_axis
from repro.types import Trajectory


def first_kept_range(config: RadarConfig) -> float:
    """The nearest range bin at or beyond the near-field blanking."""
    ranges = range_axis(config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)
    return float(ranges[ranges >= config.min_range][0])


@pytest.fixture(scope="module")
def breathing_session():
    config = RadarConfig(position=(5.0, 0.1), axis_angle=0.0,
                         facing_angle=np.pi / 2)
    radar = FmcwRadar(config)
    scene = Scene(Rectangle.from_size(10.0, 6.6))
    position = np.array([5.0, 4.0])
    scene.add_human(
        Trajectory(np.vstack([position, position]), dt=20.0),
        breathing=BreathingSpec(frequency=0.25, amplitude=0.005),
        rcs_fluctuation=0.0,
    )
    result = radar.sense(scene, 20.0, rng=np.random.default_rng(0))
    return radar, result, position


class TestSensingResult:
    def test_frame_count_and_times(self, breathing_session):
        radar, result, _position = breathing_session
        assert len(result.profiles) == 200  # 20 s at 10 Hz
        assert result.times.shape == (200,)
        assert np.diff(result.times) == pytest.approx(
            np.full(199, radar.config.frame_interval)
        )

    def test_raw_profiles_shape(self, breathing_session):
        radar, result, _position = breathing_session
        num_bins = result.range_bins.shape[0]
        assert result.raw_profiles.shape == (200, 7, num_bins)

    def test_frame_dt(self, breathing_session):
        radar, result, _position = breathing_session
        assert result.frame_dt == pytest.approx(0.1)

    def test_phase_series_carries_breathing(self, breathing_session):
        radar, result, position = breathing_session
        distance = radar.array.range_to(position)
        phase = np.unwrap(result.phase_series(distance))
        t = np.arange(phase.size) * result.frame_dt
        detrended = phase - np.polyval(np.polyfit(t, phase, 1), t)
        spectrum = np.abs(np.fft.rfft(detrended))
        freqs = np.fft.rfftfreq(phase.size, d=result.frame_dt)
        dominant = freqs[1:][int(np.argmax(spectrum[1:]))]
        assert dominant == pytest.approx(0.25, abs=0.03)

    def test_static_breather_leaves_no_tracks(self, breathing_session):
        # A breathing-but-stationary person produces only tiny frame-to-
        # frame residuals: no walking track should be extracted.
        _radar, result, _position = breathing_session
        for track in result.tracks():
            positions = np.vstack(track.raw_positions)
            spread = np.linalg.norm(positions - positions.mean(axis=0),
                                    axis=1).max()
            assert spread < 0.5

    def test_sense_rejects_nonpositive_duration(self):
        radar = FmcwRadar(RadarConfig(position=(5.0, 0.1),
                                      facing_angle=np.pi / 2))
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        with pytest.raises(TrackingError):
            radar.sense(scene, -1.0)

    def test_default_rng_reproducible(self):
        radar = FmcwRadar(RadarConfig(position=(5.0, 0.1),
                                      facing_angle=np.pi / 2))
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        scene.add_static((4.0, 3.0), rcs=2.0)
        first = radar.sense(scene, 1.0)
        second = radar.sense(scene, 1.0)
        assert first.raw_profiles == pytest.approx(second.raw_profiles)

    def test_max_range_override(self):
        radar = FmcwRadar(RadarConfig(position=(5.0, 0.1),
                                      facing_angle=np.pi / 2))
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        result = radar.sense(scene, 1.0, max_range=4.0)
        assert result.profiles[0].ranges[-1] <= 4.0


class TestRangeCrop:
    """A crop that keeps no range bin is a configuration error; one that
    keeps fewer than three bins senses maps too small to hold a peak."""

    @pytest.fixture(scope="class")
    def demo(self):
        scene, config = build_demo_scene()
        assert config.min_range == 0.6
        return FmcwRadar(config), scene

    def test_empty_crop_raises_naming_both_bounds(self, demo):
        radar, scene = demo
        with pytest.raises(ConfigurationError,
                           match=r"min_range=0\.6, max_range=0\.5"):
            radar.sense(scene, 0.3, max_range=0.5,
                        rng=np.random.default_rng(0))

    def test_one_bin_crop_detects_nothing(self, demo):
        radar, scene = demo
        result = radar.sense(scene, 0.5, rng=np.random.default_rng(0),
                             max_range=first_kept_range(radar.config))
        assert result.profiles[0].power.shape == (
            1, radar.config.angle_grid_points)
        assert result.tracks() == []
        tracker = result.stream_tracks()
        assert tracker.frames_ingested == len(result.profiles)
        assert tracker.active_tracks == []

    @pytest.mark.parametrize("shape", [(0, 181), (1, 181), (2, 181),
                                       (40, 2), (0, 0)])
    def test_maps_below_3x3_have_no_peaks(self, demo, shape):
        radar, _scene = demo
        profile = RangeAngleProfile(power=np.ones(shape),
                                    ranges=np.zeros(shape[0]),
                                    angles=np.zeros(shape[1]), time=0.0)
        tracker = StreamingTracker(radar.array)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile.detect(threshold=0.5) == []
            tracker.ingest(profile)
        assert tracker.frames_ingested == 1
        assert tracker.active_tracks == []


class TestGeneratorStateDict:
    def test_class_gain_serialized(self, rng, tmp_path):
        from repro.gan import TrajectoryGenerator
        from repro.nn import load_state, save_state
        source = TrajectoryGenerator(noise_dim=4, hidden_size=6,
                                     num_steps=5, rng=rng)
        source.class_gain.data = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
        path = tmp_path / "generator.npz"
        save_state(source, path)
        target = TrajectoryGenerator(noise_dim=4, hidden_size=6,
                                     num_steps=5,
                                     rng=np.random.default_rng(77))
        load_state(target, path)
        assert target.class_gain.data == pytest.approx(
            source.class_gain.data
        )

    def test_roundtrip_preserves_generation(self, rng, tmp_path):
        from repro.gan import TrajectoryGenerator
        from repro.nn import load_state, save_state
        source = TrajectoryGenerator(noise_dim=4, hidden_size=6,
                                     num_steps=5, dropout_probability=0.0,
                                     rng=rng)
        path = tmp_path / "generator.npz"
        save_state(source, path)
        clone = TrajectoryGenerator(noise_dim=4, hidden_size=6,
                                    num_steps=5, dropout_probability=0.0,
                                    rng=np.random.default_rng(5))
        load_state(clone, path)
        labels = np.array([0, 3])
        noise_rng = np.random.default_rng(9)
        a = source.generate_steps(2, labels, noise_rng)
        noise_rng = np.random.default_rng(9)
        b = clone.generate_steps(2, labels, noise_rng)
        assert a == pytest.approx(b)
