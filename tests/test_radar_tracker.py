"""Tests for repro.radar.tracker: Kalman filter, clustering, track extraction."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrackingError
from repro.geometry import Rectangle
from repro.radar import (
    FmcwRadar,
    KalmanTracker2D,
    RadarConfig,
    Scene,
    TrackerConfig,
)
from repro.radar.tracker import Track, _cluster_detections
from repro.types import Trajectory


class TestKalmanTracker2D:
    def test_initial_state(self):
        kf = KalmanTracker2D(np.array([1.0, 2.0]))
        assert kf.position == pytest.approx([1.0, 2.0])
        assert kf.velocity == pytest.approx([0.0, 0.0])

    def test_predict_moves_with_velocity(self):
        kf = KalmanTracker2D(np.array([0.0, 0.0]))
        kf.state[2:] = [1.0, -2.0]
        predicted = kf.predict(0.5)
        assert predicted == pytest.approx([0.5, -1.0])

    def test_update_pulls_toward_measurement(self):
        kf = KalmanTracker2D(np.array([0.0, 0.0]))
        updated = kf.update(np.array([1.0, 0.0]))
        assert 0.0 < updated[0] <= 1.0

    def test_converges_to_constant_velocity_target(self):
        kf = KalmanTracker2D(np.array([0.0, 0.0]))
        dt = 0.1
        for step in range(1, 60):
            truth = np.array([0.5 * step * dt, 0.25 * step * dt])
            kf.predict(dt)
            kf.update(truth)
        assert kf.velocity == pytest.approx([0.5, 0.25], abs=0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            KalmanTracker2D(np.zeros(3))
        kf = KalmanTracker2D(np.zeros(2))
        with pytest.raises(ConfigurationError):
            kf.predict(0.0)
        with pytest.raises(ConfigurationError):
            kf.update(np.zeros(3))

    @pytest.mark.parametrize("name", ["position_variance",
                                      "velocity_variance", "process_noise",
                                      "measurement_noise"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_rejects_bad_variances(self, name, value):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            KalmanTracker2D(np.zeros(2), **{name: value})

    def test_filtering_reduces_measurement_noise(self, rng):
        dt = 0.1
        kf = KalmanTracker2D(np.array([0.0, 0.0]),
                             measurement_noise=0.04)
        raw_errors, filtered_errors = [], []
        for step in range(1, 100):
            truth = np.array([1.0 * step * dt, 0.0])
            measurement = truth + rng.normal(0, 0.2, 2)
            kf.predict(dt)
            estimate = kf.update(measurement)
            if step > 20:  # after convergence
                raw_errors.append(np.linalg.norm(measurement - truth))
                filtered_errors.append(np.linalg.norm(estimate - truth))
        assert np.mean(filtered_errors) < np.mean(raw_errors)


class TestTrackerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"threshold_factor": 0.0},
        {"gate_distance": -1.0},
        {"max_misses": -1},
        {"min_track_points": 1},
        {"max_targets": 0},
        {"min_hit_ratio": 0.0},
        {"min_relative_power_db": 0.0},
        {"cluster_radius": -0.1},
        {"min_hit_ratio": 1.5},
        {"smoothing_window": 0},
        {"max_jump": 0.0},
        {"threshold_factor": float("inf")},
        {"gate_distance": float("nan")},
        {"max_misses": float("nan")},
        {"max_jump": float("inf")},
        {"min_hit_ratio": float("nan")},
        {"min_relative_power_db": float("nan")},
        {"cluster_radius": float("inf")},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrackerConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_error_names_the_field(self, value):
        with pytest.raises(ConfigurationError, match="gate_distance"):
            TrackerConfig(gate_distance=value)


class TestClusterDetections:
    def test_merges_nearby_into_weighted_centroid(self):
        detections = [(np.array([0.0, 0.0]), 3.0), (np.array([0.4, 0.0]), 1.0)]
        merged = _cluster_detections(detections, radius=1.0)
        assert len(merged) == 1
        position, power = merged[0]
        assert position == pytest.approx([0.1, 0.0])
        assert power == pytest.approx(4.0)

    def test_keeps_distant_detections(self):
        detections = [(np.array([0.0, 0.0]), 3.0), (np.array([5.0, 0.0]), 1.0)]
        merged = _cluster_detections(detections, radius=1.0)
        assert len(merged) == 2

    def test_radius_zero_disables(self):
        detections = [(np.array([0.0, 0.0]), 3.0), (np.array([0.1, 0.0]), 1.0)]
        assert len(_cluster_detections(detections, radius=0.0)) == 2

    def test_input_order_does_not_change_clusters(self):
        """Regression: clustering must be a function of the detection set.

        Historically the pre-sort was by power alone, so equal-power
        detections clustered in input order — permuting the input could
        change which detection anchored a cluster and therefore the
        merged centroids.
        """
        rng = np.random.default_rng(99)
        detections = [(rng.uniform(0.0, 4.0, 2), float(p))
                      for p in [3.0, 3.0, 3.0, 1.0, 1.0, 7.0]]
        baseline = _cluster_detections(detections, radius=1.5)
        for seed in range(8):
            shuffled = list(detections)
            np.random.default_rng(seed).shuffle(shuffled)
            merged = _cluster_detections(shuffled, radius=1.5)
            assert len(merged) == len(baseline)
            for (pos, power), (ref_pos, ref_power) in zip(merged, baseline):
                assert pos == pytest.approx(ref_pos)
                assert power == pytest.approx(ref_power)

    def test_output_is_canonically_ordered(self):
        detections = [(np.array([2.0, 0.0]), 1.0),
                      (np.array([0.0, 0.0]), 1.0),
                      (np.array([5.0, 1.0]), 4.0)]
        merged = _cluster_detections(detections, radius=0.5)
        powers = [power for _pos, power in merged]
        assert powers == sorted(powers, reverse=True)
        equal_power = [tuple(pos) for pos, power in merged if power == 1.0]
        assert equal_power == sorted(equal_power)


class TestTrackLifecycle:
    def test_to_trajectory_requires_points(self):
        track = Track(0.0, np.array([1.0, 1.0]), TrackerConfig())
        with pytest.raises(TrackingError):
            track.to_trajectory()

    def test_total_power_accumulates(self):
        track = Track(0.0, np.array([0.0, 0.0]), TrackerConfig(), power=2.0)
        track.add(0.1, np.array([0.1, 0.0]), power=3.0)
        assert track.total_power == pytest.approx(5.0)

    def test_alive_until_max_misses(self):
        config = TrackerConfig(max_misses=2)
        track = Track(0.0, np.array([0.0, 0.0]), config)
        track.mark_missed()
        track.mark_missed()
        assert track.alive
        track.mark_missed()
        assert not track.alive

    def test_to_trajectory_uniform_dt(self):
        config = TrackerConfig()
        track = Track(0.0, np.array([0.0, 0.0]), config)
        for step in range(1, 20):
            track.add(0.1 * step, np.array([0.05 * step, 0.0]))
        trajectory = track.to_trajectory(smooth=False)
        assert trajectory.dt == pytest.approx(0.1)
        assert len(trajectory) >= 19

    def test_age_counts_hits_and_misses(self):
        track = Track(0.0, np.array([0.0, 0.0]), TrackerConfig(),
                      track_id=7)
        assert track.track_id == 7
        assert track.age == 1
        track.add(0.1, np.array([0.1, 0.0]))
        track.mark_missed()
        track.mark_missed()
        track.add(0.4, np.array([0.2, 0.0]))
        assert track.age == 5
        assert track.misses == 0
        assert track.total_misses == 2

    def test_state_round_trip_is_exact(self):
        track = Track(0.0, np.array([1.0, 2.0]), TrackerConfig(),
                      power=3.0, track_id=11)
        track.add(0.1, np.array([1.1, 2.0]), power=2.5)
        track.mark_missed()
        restored = Track.from_state(track.to_state(), TrackerConfig())
        assert restored.track_id == track.track_id
        assert restored.times == track.times
        assert restored.age == track.age
        assert restored.misses == track.misses
        np.testing.assert_array_equal(restored.filter.state,
                                      track.filter.state)
        np.testing.assert_array_equal(restored.filter.covariance,
                                      track.filter.covariance)


class TestEndToEndTracking:
    """Full radar.sense -> .tracks() on simple scenes."""

    def _run(self, scene_builder, duration=8.0, seed=4):
        config = RadarConfig(position=(5.0, 0.1), axis_angle=0.0,
                             facing_angle=np.pi / 2)
        radar = FmcwRadar(config)
        room = Rectangle.from_size(10.0, 6.6)
        scene = Scene(room)
        scene_builder(scene)
        return radar.sense(scene, duration, rng=np.random.default_rng(seed))

    def test_single_walker_tracked_accurately(self, straight_walk):
        result = self._run(lambda s: s.add_human(straight_walk))
        tracks = result.tracks()
        assert tracks, "walker was not tracked"
        best = tracks[0]
        errors = [
            np.linalg.norm(p - straight_walk.position_at(t))
            for t, p in zip(best.times, best.raw_positions)
        ]
        assert np.median(errors) < 0.15

    def test_empty_room_produces_no_tracks(self):
        result = self._run(lambda s: s.add_static((3.0, 3.0), rcs=5.0))
        assert result.tracks() == []

    def test_two_walkers_both_tracked(self):
        walk_a = Trajectory(np.linspace([2.0, 2.0], [2.0, 5.0], 50),
                            dt=8.0 / 49.0)
        walk_b = Trajectory(np.linspace([8.0, 5.0], [8.0, 2.0], 50),
                            dt=8.0 / 49.0)

        def build(scene):
            scene.add_human(walk_a)
            scene.add_human(walk_b)

        result = self._run(build)
        tracks = result.tracks()
        assert len(tracks) >= 2
        starts = [t.raw_positions[0] for t in tracks[:2]]
        xs = sorted(p[0] for p in starts)
        assert xs[0] == pytest.approx(2.0, abs=0.5)
        assert xs[1] == pytest.approx(8.0, abs=0.5)

    def test_best_trajectory_raises_when_empty(self):
        result = self._run(lambda s: None)
        with pytest.raises(TrackingError):
            result.best_trajectory()
