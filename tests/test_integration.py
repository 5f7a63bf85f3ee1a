"""Cross-module integration tests: the full RF-Protect loop.

These exercise the complete chain — motion/GAN -> controller -> tag ->
radar frontend -> processing -> tracking -> metrics — asserting the
system-level claims the paper makes, at small scale.
"""

import numpy as np
import pytest

from repro.eavesdropper import count_occupants, filter_ghost_trajectories
from repro.experiments.environments import home_environment, office_environment
from repro.metrics.alignment import spoofing_errors
from repro.metrics.fid import trajectory_features
from repro.trajectories import HumanMotionSimulator
from repro.types import Trajectory
from tests.receive_oracle import emit_frame


@pytest.fixture(scope="module")
def shared_rng():
    return np.random.default_rng(2024)


class TestGhostInjection:
    """Sec. 5: the reflector creates trackable, accurate fake humans."""

    @pytest.fixture(scope="class")
    def spoofed_session(self):
        environment = office_environment()
        rng = np.random.default_rng(42)
        simulator = HumanMotionSimulator(rng=rng)
        controller = environment.make_controller()
        shape = simulator.sample_trajectory(profile_index=2).centered()
        placed = controller.place_trajectory(shape)
        schedule = controller.plan_trajectory(placed)
        tag = environment.make_tag()
        tag.deploy(schedule)
        scene = environment.make_scene()
        scene.add(tag)
        radar = environment.make_radar()
        result = radar.sense(scene, 10.0, rng=rng)
        return environment, schedule, result

    def test_empty_room_appears_occupied(self, spoofed_session):
        _env, _schedule, result = spoofed_session
        assert len(result.tracks()) >= 1

    def test_ghost_matches_intent_modulo_rigid(self, spoofed_session):
        environment, schedule, result = spoofed_session
        errors = spoofing_errors(result.trajectories()[0],
                                 schedule.intended_trajectory(),
                                 environment.radar_position)
        medians = errors.medians()
        assert medians["location_m"] < 0.35
        assert medians["angle_deg"] < 8.0
        # Distance accuracy within ~1 range bin, like the paper (Sec 11.1).
        resolution = environment.radar_config.chirp.range_resolution
        assert medians["distance_m"] < 1.5 * resolution

    def test_ghost_kinematics_look_human(self, spoofed_session):
        _env, _schedule, result = spoofed_session
        tracked = result.trajectories()[0]
        features = trajectory_features(tracked)
        assert np.all(np.isfinite(features))
        speeds = tracked.speeds()
        assert speeds.max() < 3.0  # no superhuman motion artifacts


class TestMixedScene:
    """Sec. 7: phantoms corrupt counting; Sec. 11.3: legit sensing works."""

    @pytest.fixture(scope="class")
    def mixed_session(self):
        environment = home_environment()
        rng = np.random.default_rng(7)
        controller = environment.make_controller()
        simulator = HumanMotionSimulator(rng=rng)

        human = Trajectory(
            np.linspace(environment.room.center + np.array([-4.0, 0.5]),
                        environment.room.center + np.array([-1.0, 2.0]), 50),
            dt=10.0 / 49.0,
        )
        shape = simulator.sample_trajectory(profile_index=1).centered()
        placed = controller.place_trajectory(shape)
        schedule = controller.plan_trajectory(placed)
        tag = environment.make_tag()
        tag.deploy(schedule)

        scene = environment.make_scene()
        scene.add_human(human)
        scene.add(tag)
        radar = environment.make_radar()
        result = radar.sense(scene, 10.0, rng=rng)
        return environment, human, tag, result

    def test_eavesdropper_overcounts(self, mixed_session):
        _env, _human, _tag, result = mixed_session
        assert count_occupants(result) >= 2  # truth is 1

    def test_legitimate_sensor_recovers_truth(self, mixed_session):
        _env, human, tag, result = mixed_session
        sensed = result.trajectories()[:2]
        real, matches = filter_ghost_trajectories(sensed, tag.ghost_reports())
        assert len(matches) == 1
        assert len(real) == 1
        # The surviving trajectory is the human's, not the ghost's.
        recovered_centroid = real[0].centroid()
        assert np.linalg.norm(recovered_centroid - human.centroid()) < 1.0


class TestDefenseRobustness:
    """Sec. 12's detectability argument: the tag is passive."""

    def test_tag_silent_when_radar_off(self, shared_rng):
        # When the schedule has no active command (radar observing outside
        # the spoofing window), the tag contributes nothing: it only ever
        # re-radiates the radar's own signal.
        environment = office_environment()
        controller = environment.make_controller()
        simulator = HumanMotionSimulator(rng=shared_rng)
        shape = simulator.sample_trajectory(profile_index=1).centered()
        placed = controller.place_trajectory(shape)
        schedule = controller.plan_trajectory(placed, start_time=100.0)
        tag = environment.make_tag()
        tag.deploy(schedule)
        components = emit_frame(
            [tag], 0.0, environment.make_radar().array,
            environment.make_channel(), shared_rng,
        )
        assert components == []

    def test_multiple_ghosts_from_one_tag(self, shared_rng):
        environment = home_environment()
        controller = environment.make_controller()
        simulator = HumanMotionSimulator(rng=shared_rng)
        tag = environment.make_tag()
        for center_range in (4.0, 6.0):
            shape = simulator.sample_trajectory(profile_index=1).centered()
            placed = controller.place_trajectory(shape,
                                                 center_range=center_range)
            tag.deploy(controller.plan_trajectory(placed))
        scene = environment.make_scene()
        scene.add(tag)
        result = environment.make_radar().sense(scene, 8.0, rng=shared_rng)
        assert count_occupants(result) >= 2
