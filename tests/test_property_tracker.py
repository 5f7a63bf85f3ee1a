"""Property suite for the incremental tracker: the streaming≡batch wall.

The tracker's central contract is that *streaming is batch*: ingesting a
sweep one frame at a time through :class:`StreamingTracker` produces
exactly the tracks — IDs, raw positions, ages, miss counts — of handing
the whole sweep to the batch driver. Today that holds by construction
(a result's ``tracks()`` and ``track_detections`` are loops over the
streaming core); this suite pins it against any future divergence (a batch fast
path, a smarter streaming association) with hypothesis-generated scenes:
1–4 targets crossing through a common point, frame-time jitter, dropped
frames, measurement noise.

Also pinned here: association is independent of detection input order
(canonical ordering), and checkpoint/restore is exact mid-stream
(including a JSON round trip) while blobs of another schema version,
with missing or unexpected keys, or with fields the restore cannot parse
are rejected with a :class:`TrackingError`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TrackingError
from repro.radar.tracker import (
    StreamingTracker,
    TrackerConfig,
    track_detections,
)

COMMON_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Short-scene tracker config: property scenes are 10-30 frames, so the
#: track-length and consistency floors come down accordingly.
CONFIG = TrackerConfig(min_track_points=3, min_hit_ratio=0.2,
                       cluster_radius=0.3, gate_distance=1.0)

Frame = tuple[float, list[tuple[np.ndarray, float]]]


@st.composite
def scenarios(draw) -> list[Frame]:
    """Detection frames of 1-4 targets crossing through a common point.

    Every target's constant-velocity path passes through one shared
    crossing point at the scene's midpoint time, so multi-target scenes
    exercise the association-under-ambiguity regime rather than
    well-separated tracks. Jittered frame intervals, per-(frame, target)
    dropouts, and measurement noise come from one seeded generator.
    """
    num_targets = draw(st.integers(min_value=1, max_value=4))
    num_frames = draw(st.integers(min_value=10, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dt_jitter = draw(st.floats(min_value=0.0, max_value=0.4))
    drop_rate = draw(st.floats(min_value=0.0, max_value=0.25))
    rng = np.random.default_rng(seed)

    dts = 0.1 * (1.0 + dt_jitter * rng.uniform(-0.5, 0.5, num_frames - 1))
    times = np.concatenate([[0.0], np.cumsum(dts)])
    t_mid = times[num_frames // 2]
    crossing_point = rng.uniform([2.0, 2.0], [6.0, 4.0])
    velocities = rng.uniform(-0.6, 0.6, (num_targets, 2))
    powers = rng.uniform(5.0, 50.0, num_targets)

    frames: list[Frame] = []
    for t in times:
        detections = []
        for k in range(num_targets):
            if rng.uniform() < drop_rate:
                continue
            truth = crossing_point + velocities[k] * (t - t_mid)
            measured = truth + rng.normal(0.0, 0.03, 2)
            detections.append((measured, float(powers[k])))
        frames.append((float(t), detections))
    return frames


def track_state(track) -> tuple:
    """Everything observable about a track, for exact comparison."""
    return (
        track.track_id,
        tuple(track.times),
        tuple(tuple(float(x) for x in p) for p in track.raw_positions),
        tuple(track.powers),
        track.age,
        track.misses,
        track.total_misses,
        tuple(float(x) for x in track.filter.state),
    )


def stream(frames: list[Frame],
           config: TrackerConfig = CONFIG) -> StreamingTracker:
    tracker = StreamingTracker(config=config)
    for time, detections in frames:
        tracker.ingest_detections(time, detections)
    return tracker


class TestStreamingEqualsBatch:
    @COMMON_SETTINGS
    @given(frames=scenarios())
    def test_stream_equals_batch_track_for_track(self, frames):
        batch_tracks = track_detections(frames, CONFIG)
        stream_tracks = stream(frames).tracks()
        assert ([track_state(t) for t in stream_tracks]
                == [track_state(t) for t in batch_tracks])

    @COMMON_SETTINGS
    @given(frames=scenarios())
    def test_tracks_view_is_non_destructive(self, frames):
        """Reading tracks() after every frame never changes the outcome."""
        tracker = StreamingTracker(config=CONFIG)
        for time, detections in frames:
            tracker.ingest_detections(time, detections)
            tracker.tracks()
        assert ([track_state(t) for t in tracker.tracks()]
                == [track_state(t) for t in track_detections(frames, CONFIG)])


class TestCheckpointRestore:
    @COMMON_SETTINGS
    @given(frames=scenarios(), data=st.data())
    def test_checkpoint_midstream_is_exact(self, frames, data):
        split = data.draw(st.integers(min_value=0, max_value=len(frames)),
                          label="split")
        uninterrupted = stream(frames)

        resumed = StreamingTracker(config=CONFIG)
        for time, detections in frames[:split]:
            resumed.ingest_detections(time, detections)
        # Round-trip the blob through JSON text: Python float repr is
        # exact, so a parked-and-restored session loses nothing.
        blob = json.loads(json.dumps(resumed.checkpoint()))
        resumed = StreamingTracker.from_checkpoint(blob)
        for time, detections in frames[split:]:
            resumed.ingest_detections(time, detections)

        assert ([track_state(t) for t in resumed.tracks()]
                == [track_state(t) for t in uninterrupted.tracks()])
        assert resumed.checkpoint() == uninterrupted.checkpoint()

    def test_checkpoint_version_is_enforced(self):
        tracker = StreamingTracker(config=CONFIG)
        blob = tracker.checkpoint()
        blob["version"] = 999
        with pytest.raises(TrackingError):
            StreamingTracker.from_checkpoint(blob)

    def test_version_one_blob_is_rejected(self):
        """A blob from before the association field was dropped (v1)."""
        tracker = StreamingTracker(config=CONFIG)
        tracker.ingest_detections(0.0, [(np.array([1.0, 2.0]), 5.0)])
        blob = tracker.checkpoint()
        assert blob["version"] == 2
        assert "association" not in blob["config"]
        blob["version"] = 1
        blob["config"]["association"] = "hungarian"
        with pytest.raises(TrackingError, match="version 1"):
            StreamingTracker.from_checkpoint(blob)


    def test_checkpoint_writes_exactly_the_declared_fields(self):
        assert (set(StreamingTracker().checkpoint())
                == set(StreamingTracker.CHECKPOINT_FIELDS))

    @pytest.mark.parametrize("corrupt, match, cause", [
        (lambda blob: blob.pop("config"),
         r"missing keys \['config'\]", None),
        (lambda blob: blob.update(extra=1),
         r"unexpected keys \['extra'\]", None),
        (lambda blob: blob.update(frame_times="abc"), "ValueError",
         ValueError),
        (lambda blob: blob.update(next_track_id=None), "TypeError",
         TypeError),
        (lambda blob: blob["config"].update(association="hungarian"),
         "TypeError", TypeError),
        (lambda blob: blob["active"][0].pop("filter"), "KeyError",
         KeyError),
        (lambda blob: blob["active"][0].update(times=[]), "IndexError",
         IndexError),
        (lambda blob: blob["active"][0]["filter"].update(covariance=[[1.0]]),
         r"covariance \(4, 4\)", ValueError),
        (lambda blob: blob["active"][0]["filter"].update(state=[1.0, 2.0]),
         r"state must be \(4,\)", ValueError),
        (lambda blob: blob["active"][0]["filter"].update(
            state=[float("nan")] * 4), "must be finite", ValueError),
        (lambda blob: blob["active"][0]["filter"].update(
            covariance=[[float("inf")] * 4] * 4), "must be finite",
         ValueError),
        (lambda blob: blob.update(frame_times=blob["frame_times"][::-1]),
         "frame_times must be non-decreasing", ValueError),
        (lambda blob: blob["active"][0].update(
            times=blob["active"][0]["times"][::-1]),
         "track times must be non-decreasing", ValueError),
        (lambda blob: blob["active"][0]["filter"].update(
            process_noise=float("nan")), "finite and positive",
         ConfigurationError),
        (lambda blob: blob["active"][0]["filter"].update(
            process_noise=-0.5), "finite and positive", ConfigurationError),
        (lambda blob: blob["active"][0]["filter"].update(
            measurement_noise=float("inf")), "finite and positive",
         ConfigurationError),
        (lambda blob: blob["config"].update(gate_distance=float("nan")),
         "gate_distance must be finite", ConfigurationError),
        (lambda blob: blob["config"].update(threshold_factor=float("inf")),
         "threshold_factor must be finite", ConfigurationError),
        (lambda blob: blob["config"].update(max_jump=-1.0),
         "max_jump must be positive", ConfigurationError),
    ], ids=["missing-key", "unexpected-key", "frame-times-text",
            "track-id-none", "config-unknown-field", "track-no-filter",
            "track-truncated", "covariance-1x1", "state-2-vector",
            "state-nan", "covariance-inf", "frame-times-reversed",
            "track-times-reversed", "process-noise-nan",
            "process-noise-negative", "measurement-noise-inf",
            "gate-distance-nan", "threshold-factor-inf",
            "max-jump-negative"])
    def test_malformed_blob_fails_typed(self, corrupt, match, cause):
        tracker = StreamingTracker(config=CONFIG)
        tracker.ingest_detections(0.0, [(np.array([1.0, 2.0]), 5.0)])
        tracker.ingest_detections(0.1, [(np.array([1.1, 2.0]), 5.0)])
        blob = json.loads(json.dumps(tracker.checkpoint()))
        corrupt(blob)
        with pytest.raises(TrackingError, match=match) as raised:
            StreamingTracker.from_checkpoint(blob)
        if cause is None:
            assert raised.value.__cause__ is None
        else:
            assert isinstance(raised.value.__cause__, cause)

    def test_non_mapping_blob_fails_typed(self):
        with pytest.raises(TrackingError, match="must be a dict"):
            StreamingTracker.from_checkpoint([])


class TestOrderIndependence:
    @COMMON_SETTINGS
    @given(frames=scenarios(), seed=st.integers(0, 2**31 - 1))
    def test_detection_order_never_matters(self, frames, seed):
        """Permuting every frame's detection list changes nothing.

        Not even track IDs: spawn order is canonical, so the adversary's
        persistent identities are a function of the detection sets alone.
        """
        rng = np.random.default_rng(seed)
        permuted = []
        for time, detections in frames:
            shuffled = list(detections)
            rng.shuffle(shuffled)
            permuted.append((time, shuffled))
        original = stream(frames).tracks()
        reordered = stream(permuted).tracks()
        assert ([track_state(t) for t in reordered]
                == [track_state(t) for t in original])

    def test_frames_must_arrive_in_time_order(self):
        tracker = StreamingTracker(config=CONFIG)
        tracker.ingest_detections(1.0, [])
        with pytest.raises(TrackingError):
            tracker.ingest_detections(0.5, [])
