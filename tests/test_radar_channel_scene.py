"""Tests for repro.radar.channel and repro.radar.scene."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SceneError
from repro.geometry import Rectangle
from repro.radar import (
    ChannelModel,
    Fan,
    HumanTarget,
    Scene,
    SenseInput,
    StaticReflector,
)
from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import MultipathSpec
from repro.radar.config import RadarConfig
from repro.radar.frontend import thermal_noise
from repro.radar.scene import BreathingSpec
from repro.radar.stages import emit_requests
from repro.types import Trajectory
from tests.receive_oracle import emit_frame


@pytest.fixture()
def array():
    return UniformLinearArray(
        RadarConfig(position=(0.0, 0.0), axis_angle=0.0, facing_angle=np.pi / 2)
    )


class TestChannelModel:
    def test_amplitude_fourth_power_law(self):
        channel = ChannelModel()
        near = channel.path_amplitude(2.0)
        far = channel.path_amplitude(4.0)
        assert near / far == pytest.approx(4.0)  # amplitude ~ 1/d^2

    def test_amplitude_scales_with_sqrt_rcs(self):
        channel = ChannelModel()
        assert channel.path_amplitude(3.0, rcs=4.0) == pytest.approx(
            2.0 * channel.path_amplitude(3.0, rcs=1.0)
        )

    def test_reference_calibration(self):
        channel = ChannelModel(reference_amplitude=0.5, reference_distance=2.0)
        assert channel.path_amplitude(2.0) == pytest.approx(0.5)

    def test_rejects_bad_reference(self):
        with pytest.raises(ConfigurationError):
            ChannelModel(reference_amplitude=0.0)

    def test_multipath_disabled_by_default(self, rng):
        channel = ChannelModel()
        draws: list[float] = []
        state = rng.bit_generator.state
        assert channel.draw_bounces(rng, draws) == 0
        assert draws == [] and rng.bit_generator.state == state

    def test_multipath_bounces_behind_source(self, rng):
        spec = MultipathSpec(mean_paths=3.0)
        channel = ChannelModel(multipath=spec)
        draws: list[float] = []
        count = sum(channel.draw_bounces(rng, draws) for _ in range(50))
        assert count, "expected some bounces with mean_paths=3"
        distances, angles, amplitudes = channel.bounce_paths(
            5.0, 1.5, 0.1, np.reshape(draws, (count, 3)))
        assert np.all(distances > 5.0)       # excess path only adds distance
        assert np.all((0 < angles) & (angles < np.pi))
        assert np.all(amplitudes < 0.1)      # always weaker than the source

    def test_multipath_spec_validation(self):
        with pytest.raises(ConfigurationError):
            MultipathSpec(relative_amplitude=1.5)
        with pytest.raises(ConfigurationError):
            MultipathSpec(mean_paths=-1.0)


class TestThermalNoise:
    def test_thermal_noise_statistics(self, rng):
        noise = thermal_noise(0.1, rng, np.empty(20000, dtype=complex))
        rms = np.sqrt(np.mean(np.abs(noise) ** 2))
        assert rms == pytest.approx(0.1, rel=0.05)
        assert noise.real.mean() == pytest.approx(0.0, abs=0.01)

    def test_matches_complex_sum_bitwise(self):
        shape = (7, 64)
        scale = 0.1 / np.sqrt(2.0)
        reference_rng = np.random.default_rng(5)
        reference = (reference_rng.normal(0.0, scale, shape)
                     + 1j * reference_rng.normal(0.0, scale, shape))
        rng = np.random.default_rng(5)
        cube = np.zeros((3, *shape), dtype=complex)
        thermal_noise(0.1, rng, cube[1])
        assert np.array_equal(cube[1].view(np.uint64),
                              reference.view(np.uint64))
        assert not cube[0].any() and not cube[2].any()
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_zero_noise_std_draws_nothing(self, array):
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        scene.add_static((2.0, 2.0))
        scene.add(Fan((6.0, 4.0)))
        config = RadarConfig(position=(0.0, 0.0), axis_angle=0.0,
                             facing_angle=np.pi / 2, noise_std=0.0)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        emission, noise = emit_requests(
            [SenseInput(scene, np.arange(4) * 0.1, rng)], config, array)
        assert noise is None
        assert emission.counts.tolist() == [2] * 4
        assert rng.bit_generator.state == before


class TestBreathingSpec:
    def test_displacement_bounded_by_amplitude(self):
        spec = BreathingSpec(amplitude=0.006, frequency=0.25)
        times = np.linspace(0, 20, 500)
        displacement = np.array([spec.displacement(t) for t in times])
        assert np.abs(displacement).max() <= 0.006 + 1e-12

    def test_period(self):
        spec = BreathingSpec(frequency=0.5)
        assert spec.displacement(0.0) == pytest.approx(spec.displacement(2.0))

    def test_rejects_bad_values(self):
        with pytest.raises(SceneError):
            BreathingSpec(amplitude=-0.001)
        with pytest.raises(SceneError):
            BreathingSpec(frequency=0.0)


class TestHumanTarget(object):
    def test_path_components_geometry(self, array, rng):
        walk = Trajectory([[2.0, 3.0], [2.0, 4.0]], dt=1.0)
        human = HumanTarget(walk, rcs_fluctuation=0.0,
                            breathing=BreathingSpec(amplitude=1e-9))
        channel = ChannelModel()
        components = emit_frame([human], 0.0, array, channel, rng)
        assert len(components) == 1
        expected_distance, expected_angle = array.polar_of(np.array([2.0, 3.0]))
        assert components[0].distance == pytest.approx(expected_distance,
                                                       abs=1e-6)
        assert components[0].angle == pytest.approx(expected_angle)
        assert components[0].beat_offset_hz == 0.0

    def test_breathing_modulates_distance(self, array, rng):
        static = Trajectory([[0.0, 3.0], [0.0, 3.0]], dt=10.0)
        human = HumanTarget(static, rcs_fluctuation=0.0,
                            breathing=BreathingSpec(amplitude=0.005,
                                                    frequency=0.25))
        channel = ChannelModel()
        d_peak = emit_frame([human], 1.0, array, channel, rng)[0].distance
        d_zero = emit_frame([human], 0.0, array, channel, rng)[0].distance
        assert d_peak != pytest.approx(d_zero, abs=1e-6)
        assert abs(d_peak - d_zero) < 0.01

    def test_rcs_fluctuation_changes_amplitude(self, array, rng):
        walk = Trajectory([[0.0, 3.0], [0.0, 4.0]], dt=1.0)
        human = HumanTarget(walk, rcs_fluctuation=0.3)
        channel = ChannelModel()
        amplitudes = {
            emit_frame([human], 0.0, array, channel, rng)[0].amplitude
            for _ in range(5)
        }
        assert len(amplitudes) > 1

    def test_rejects_bad_rcs(self):
        walk = Trajectory([[0, 0], [1, 1]], dt=1.0)
        with pytest.raises(SceneError):
            HumanTarget(walk, rcs=0.0)
        with pytest.raises(SceneError):
            HumanTarget(walk, rcs_fluctuation=1.0)


class TestStaticReflector:
    def test_constant_across_time(self, array, rng):
        static = StaticReflector((3.0, 4.0), rcs=2.0)
        channel = ChannelModel()
        first = emit_frame([static], 0.0, array, channel, rng)[0]
        later = emit_frame([static], 9.0, array, channel, rng)[0]
        assert first.distance == later.distance
        assert first.amplitude == later.amplitude
        assert first.phase_offset == later.phase_offset

    def test_rejects_bad_position(self):
        with pytest.raises(SceneError):
            StaticReflector((1.0, 2.0, 3.0))


class TestScene:
    def test_add_human_inside_room(self, straight_walk):
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        human = scene.add_human(straight_walk)
        assert human in scene.humans()

    def test_add_human_outside_room_rejected(self):
        scene = Scene(Rectangle.from_size(4.0, 4.0))
        walk = Trajectory([[1.0, 1.0], [9.0, 1.0]], dt=1.0)
        with pytest.raises(SceneError):
            scene.add_human(walk)

    def test_add_static_outside_room_rejected(self):
        scene = Scene(Rectangle.from_size(4.0, 4.0))
        with pytest.raises(SceneError):
            scene.add_static((5.0, 1.0))

    def test_add_rejects_non_entity(self):
        scene = Scene(Rectangle.from_size(4.0, 4.0))
        with pytest.raises(SceneError):
            scene.add("not an entity")

    def test_path_components_aggregates(self, array, rng, straight_walk):
        scene = Scene(Rectangle.from_size(10.0, 6.6))
        scene.add_static((2.0, 2.0))
        scene.add_human(straight_walk)
        components = emit_frame(scene.entities, 0.0, array, scene.channel,
                                rng, scene.occlusion)
        assert len(components) >= 2
