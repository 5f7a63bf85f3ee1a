"""Tests for the pulsed radar (repro.radar.pulsed) and the delay-line tag
(repro.reflector.delay_tag) — the Sec. 13 "New Sensor Types" extension."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReflectorError
from repro.geometry import Rectangle
from repro.radar import PulsedRadar, PulsedRadarConfig, Scene
from repro.radar.frontend import PathComponent
from repro.reflector import DelayLineTag, ReflectorPanel
from repro.types import Trajectory
from tests.receive_oracle import pack_frames


def echo(radar: PulsedRadar, component: PathComponent) -> np.ndarray:
    """The echo model on one frame's packed columns, ``(K, num_samples)``."""
    columns, _counts = pack_frames([[component]])
    return radar._echo_profile(columns)


@pytest.fixture()
def pulsed_radar():
    return PulsedRadar(PulsedRadarConfig(position=(5.0, 0.1),
                                         axis_angle=0.0,
                                         facing_angle=np.pi / 2))


@pytest.fixture()
def panel():
    return ReflectorPanel((5.0, 1.3), wall_angle=0.0, normal_angle=np.pi / 2)


class TestPulsedRadarConfig:
    def test_range_resolution(self):
        config = PulsedRadarConfig(bandwidth=1.0e9)
        assert config.range_resolution == pytest.approx(0.15, abs=0.001)

    def test_num_samples_covers_window(self):
        config = PulsedRadarConfig(max_range=15.0, sample_rate=4e9)
        window = config.num_samples / config.sample_rate
        assert window >= 2 * 15.0 / 3e8

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 1e9, "bandwidth": 1e9},   # under Nyquist
        {"max_range": 0.5, "min_range": 0.6},
        {"num_antennas": 1},
        {"center_frequency": 0.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PulsedRadarConfig(**kwargs)


class TestPulsedSensing:
    def test_localizes_static_target_after_motion(self, pulsed_radar):
        room = Rectangle.from_size(10.0, 6.6)
        scene = Scene(room)
        walk = Trajectory(np.linspace([3.0, 2.0], [6.0, 4.5], 40),
                          dt=6.0 / 39.0)
        scene.add_human(walk)
        result = pulsed_radar.sense(scene, 6.0, rng=np.random.default_rng(1))
        tracks = result.tracks()
        assert tracks
        errors = [np.linalg.norm(p - walk.position_at(t))
                  for t, p in zip(tracks[0].times, tracks[0].raw_positions)]
        assert np.median(errors) < 0.15

    def test_empty_scene_no_tracks(self, pulsed_radar):
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        scene.add_static((3.0, 3.0), rcs=4.0)
        result = pulsed_radar.sense(scene, 4.0,
                                    rng=np.random.default_rng(2))
        assert result.tracks() == []

    def test_extra_delay_shifts_apparent_range(self, pulsed_radar):
        """The delay-line mechanism: extra delay = extra distance."""
        extra_distance = 3.0
        delay = 2.0 * extra_distance / 3e8 * (3e8 / 299_792_458.0)
        component_near = PathComponent(2.0, np.pi / 2, 0.1)
        component_delayed = PathComponent(2.0, np.pi / 2, 0.1,
                                          extra_delay_s=2.0 * extra_distance
                                          / 299_792_458.0)
        profile_near = echo(pulsed_radar, component_near)
        profile_delayed = echo(pulsed_radar, component_delayed)
        ranges = pulsed_radar.config.range_bins()
        peak_near = ranges[int(np.argmax(np.abs(profile_near[0])))]
        peak_delayed = ranges[int(np.argmax(np.abs(profile_delayed[0])))]
        assert peak_near == pytest.approx(2.0, abs=0.1)
        assert peak_delayed == pytest.approx(2.0 + extra_distance, abs=0.1)
        assert delay > 0  # sanity on the helper arithmetic

    def test_beat_offset_does_not_move_pulsed_echo(self, pulsed_radar):
        """The FMCW switching trick is inert against pulse radars."""
        switched = PathComponent(2.0, np.pi / 2, 0.1, beat_offset_hz=40e3)
        profile = echo(pulsed_radar, switched)
        ranges = pulsed_radar.config.range_bins()
        peak = ranges[int(np.argmax(np.abs(profile[0])))]
        assert peak == pytest.approx(2.0, abs=0.1)  # physical, not spoofed

    def test_rejects_bad_duration(self, pulsed_radar):
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        from repro.errors import TrackingError
        with pytest.raises(TrackingError):
            pulsed_radar.sense(scene, 0.0)


class TestDelayLineTag:
    def test_line_delay_arithmetic(self, panel):
        tag = DelayLineTag(panel, num_lines=16, line_spacing_m=0.15)
        # Line k adds (k+1) * 0.15 m of apparent distance.
        delay = tag.line_delay(9)
        assert delay * 299_792_458.0 / 2.0 == pytest.approx(1.5, rel=1e-9)

    def test_line_index_bounds(self, panel):
        tag = DelayLineTag(panel, num_lines=4)
        with pytest.raises(ReflectorError):
            tag.line_delay(4)

    def test_max_offset(self, panel):
        tag = DelayLineTag(panel, num_lines=32, line_spacing_m=0.15)
        assert tag.max_offset_m == pytest.approx(4.8)

    def test_plan_trajectory_quantizes_to_lines(self, panel):
        tag = DelayLineTag(panel)
        ghost = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 20), dt=0.5)
        schedule = tag.plan_trajectory(ghost)
        for command in schedule.commands:
            assert 0 <= command.line_index < tag.num_lines

    def test_plan_rejects_out_of_bank_ghost(self, panel):
        tag = DelayLineTag(panel, num_lines=4, line_spacing_m=0.15)
        far_ghost = Trajectory(np.linspace([5.0, 5.0], [5.0, 6.0], 10),
                               dt=1.0)  # needs ~4 m of offset, bank has 0.6
        with pytest.raises(ReflectorError):
            tag.plan_trajectory(far_ghost)

    def test_spoofs_pulsed_radar_end_to_end(self, pulsed_radar, panel):
        tag = DelayLineTag(panel)
        ghost = Trajectory(np.linspace([4.0, 4.0], [6.0, 5.5], 40),
                           dt=6.0 / 39.0)
        schedule = tag.plan_trajectory(ghost)
        tag.deploy(schedule)
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        scene.add(tag)
        result = pulsed_radar.sense(scene, 6.0,
                                    rng=np.random.default_rng(3))
        trajectories = result.trajectories()
        assert trajectories
        best = trajectories[0]
        n = min(len(best), len(ghost))
        errors = np.linalg.norm(
            best.resampled(n).points - ghost.resampled(n).points, axis=1
        )
        # Accuracy limited by the 0.15 m line quantization.
        assert np.median(errors) < 0.35

    def test_also_spoofs_fmcw_radar(self, panel):
        """True delay works against FMCW too (modulation-agnostic)."""
        from repro.radar import FmcwRadar, RadarConfig
        radar = FmcwRadar(RadarConfig(position=(5.0, 0.1), axis_angle=0.0,
                                      facing_angle=np.pi / 2))
        tag = DelayLineTag(panel)
        ghost = Trajectory(np.linspace([4.0, 4.0], [6.0, 5.5], 40),
                           dt=6.0 / 39.0)
        tag.deploy(tag.plan_trajectory(ghost))
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        scene.add(tag)
        result = radar.sense(scene, 6.0, rng=np.random.default_rng(4))
        trajectories = result.trajectories()
        assert trajectories
        best = trajectories[0]
        n = min(len(best), len(ghost))
        errors = np.linalg.norm(
            best.resampled(n).points - ghost.resampled(n).points, axis=1
        )
        assert np.median(errors) < 0.35

    def test_rejects_bad_construction(self, panel):
        with pytest.raises(ReflectorError):
            DelayLineTag(panel, num_lines=0)
        with pytest.raises(ReflectorError):
            DelayLineTag(panel, line_spacing_m=0.0)
