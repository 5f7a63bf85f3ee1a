"""Tests for the serving layer's stateful tracking sessions.

Pins the session subsystem's contracts:

- **lifecycle** — create → ingest → idle-evict (park) → restore resumes
  with *identical* tracker state (checkpoint round-trip equality), and
  restored sessions keep their persistent track IDs;
- **bounded memory** — the two-tier store never holds more than
  ``max_live`` live trackers or ``max_sessions`` sessions total, under a
  ≥200-session concurrent soak, with clean metric deltas;
- **service integration** — tracked requests ride the ordinary
  admission/batching path, session continuity spans requests, the
  flusher's eviction sweep parks idle sessions end to end, exported
  checkpoints restore into new sessions (a malformed one fails typed and
  leaves no session behind), and a snapshot taken while a tracked request
  holds the session lock waits for that request's frames.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    SessionNotFoundError,
    TrackingError,
)
from repro.geometry import Rectangle
from repro.radar import FmcwRadar, Scene, StreamingTracker, TrackerConfig
from repro.obs import MetricsRegistry
from repro.serve import (
    InProcessClient,
    SenseService,
    SessionConfig,
    SessionStore,
    TrackRequest,
)
from repro.serve.app import build_demo_scene
from repro.radar.processing import ZERO_PAD_FACTOR
from repro.serve.request import TrackSnapshot
from repro.signal.spectral import range_axis
from tests.test_serve_service import fast_radar_config, quick_service_config

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Short-scene tracker config for detection-level session tests.
TRACKER_CONFIG = TrackerConfig(min_track_points=3, min_hit_ratio=0.2)


def walk_frames(num_frames: int, *, start=(1.0, 1.0), velocity=(0.3, 0.1),
                power=10.0, t0=0.0, dt=0.1):
    """Detection frames of one constant-velocity walker."""
    frames = []
    for i in range(num_frames):
        t = t0 + i * dt
        position = np.array([start[0] + velocity[0] * i * dt,
                             start[1] + velocity[1] * i * dt],
                            dtype=np.float64)
        frames.append((t, [(position, power)]))
    return frames


def ingest(store: SessionStore, session_id: str, frames, *,
           now: float) -> None:
    session = store.get(session_id, now=now)
    assert session.tracker is not None
    for t, detections in frames:
        session.tracker.ingest_detections(t, detections)
    store.record_frames(session, len(frames), now=now)


class TestSessionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_live": 0},
        {"max_live": 8, "max_sessions": 4},
        {"idle_timeout_s": 0.0},
        {"sweep_interval_s": 0.0},
        {"max_live": float("nan")},
        {"max_sessions": float("inf")},
        {"idle_timeout_s": float("nan")},
        {"idle_timeout_s": float("inf")},
        {"sweep_interval_s": float("nan")},
        {"sweep_interval_s": float("inf")},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError, match="|".join(kwargs)):
            SessionConfig(**kwargs)


class TestSessionStoreLifecycle:
    def store(self, **overrides) -> SessionStore:
        defaults = dict(max_live=4, max_sessions=8, idle_timeout_s=10.0,
                        sweep_interval_s=1.0)
        defaults.update(overrides)
        return SessionStore(SessionConfig(**defaults),
                            default_tracker_config=TRACKER_CONFIG)

    def test_create_get_remove(self):
        store = self.store()
        session = store.create("alpha", now=0.0)
        assert session.session_id == "alpha"
        assert "alpha" in store
        assert store.get("alpha", now=1.0) is session
        store.remove("alpha")
        with pytest.raises(SessionNotFoundError):
            store.get("alpha", now=2.0)

    def test_duplicate_id_rejected(self):
        store = self.store()
        store.create("alpha", now=0.0)
        with pytest.raises(ConfigurationError):
            store.create("alpha", now=1.0)

    def test_auto_ids_are_unique(self):
        store = self.store()
        ids = {store.create(now=float(i)).session_id for i in range(4)}
        assert len(ids) == 4

    def test_park_and_restore_is_exact(self):
        store = self.store()
        store.create("walker", now=0.0)
        ingest(store, "walker", walk_frames(12), now=0.0)
        before = store.checkpoint_of("walker")
        store.park("walker")
        parked = store.peek("walker")
        assert not parked.live
        # The parked blob survives a JSON text round trip unchanged.
        assert json.loads(json.dumps(parked.checkpoint)) == before

        session = store.get("walker", now=1.0)
        assert session.live
        assert session.tracker is not None
        assert session.tracker.checkpoint() == before
        tracks = session.tracker.tracks()
        assert len(tracks) == 1
        assert tracks[0].track_id == 1

    def test_restored_session_continues_identically(self):
        """Park/restore mid-stream produces the uninterrupted outcome."""
        first, second = walk_frames(8), walk_frames(8, t0=0.8)
        straight = self.store()
        straight.create("s", now=0.0)
        ingest(straight, "s", first + second, now=0.0)

        parked = self.store()
        parked.create("p", now=0.0)
        ingest(parked, "p", first, now=0.0)
        parked.park("p")
        ingest(parked, "p", second, now=1.0)

        assert (parked.checkpoint_of("p")["active"]
                == straight.checkpoint_of("s")["active"])

    def test_idle_eviction_parks_only_stale_sessions(self):
        store = self.store(idle_timeout_s=5.0)
        store.create("old", now=0.0)
        store.create("fresh", now=0.0)
        store.get("fresh", now=8.0)
        assert store.evict_idle(9.0) == 1
        assert not store.peek("old").live
        assert store.peek("fresh").live

    def test_eviction_skips_locked_sessions(self):
        store = self.store(idle_timeout_s=1.0)
        store.create("busy", now=0.0)

        async def run() -> int:
            session = store.peek("busy")
            async with session.lock:
                return store.evict_idle(100.0)

        assert asyncio.run(run()) == 0
        assert store.peek("busy").live

    def test_live_bound_parks_lru(self):
        store = self.store(max_live=2, max_sessions=8)
        store.create("a", now=0.0)
        store.create("b", now=1.0)
        store.create("c", now=2.0)
        assert store.live_count == 2
        assert not store.peek("a").live
        assert store.peek("b").live and store.peek("c").live

    def test_total_bound_drops_lru_parked(self):
        store = self.store(max_live=2, max_sessions=3)
        for i in range(5):
            store.create(f"s{i}", now=float(i))
        assert len(store) == 3
        assert store.live_count <= 2
        # The most recent sessions survive; the oldest were dropped.
        assert "s4" in store and "s3" in store
        assert "s0" not in store


    def test_equal_live_and_total_bounds_hold_the_total(self):
        """Parking runs before dropping, so the parked LRU goes at once."""
        store = self.store(max_live=2, max_sessions=2)
        for i in range(4):
            store.create(f"s{i}", now=float(i))
            assert len(store) <= 2
        assert store.ids() == ["s2", "s3"]
        assert store.live_count == 2


@settings(max_examples=40, deadline=None)
@given(max_live=st.integers(1, 4), extra=st.integers(0, 3),
       touches=st.lists(st.integers(0, 9), min_size=1, max_size=40))
def test_retention_bounds_hold_after_every_operation(max_live, extra,
                                                     touches):
    """Creates and touches in any order never exceed either bound.

    ``extra == 0`` draws ``max_live == max_sessions``, where an unparked
    overflow would otherwise survive one operation too long.
    """
    config = SessionConfig(max_live=max_live, max_sessions=max_live + extra)
    store = SessionStore(config)
    now = 0.0
    for index in touches:
        now += 1.0
        session_id = f"s{index}"
        if session_id in store:
            store.get(session_id, now=now)
        else:
            store.create(session_id, now=now)
        assert store.live_count <= config.max_live
        assert len(store) <= config.max_sessions
        assert session_id in store and store.peek(session_id).live


class TestSessionSoak:
    def test_soak_200_sessions_bounded_memory_and_clean_metrics(self):
        """≥200 concurrent sessions under tight live/total bounds.

        Every session keeps ingesting across rounds (so parked sessions
        are restored on touch), the live-tracker population stays within
        ``max_live`` throughout, and the metric deltas balance.
        """
        metrics = MetricsRegistry()
        config = SessionConfig(max_live=16, max_sessions=512,
                               idle_timeout_s=30.0, sweep_interval_s=1.0)
        store = SessionStore(config, default_tracker_config=TRACKER_CONFIG,
                             metrics=metrics)
        num_sessions = 220
        frames_per_round = 6
        now = 0.0
        for i in range(num_sessions):
            now += 1.0
            store.create(f"soak-{i}", now=now)
            ingest(store, f"soak-{i}",
                   walk_frames(frames_per_round, start=(0.5 + 0.01 * i, 1.0)),
                   now=now)
            assert store.live_count <= config.max_live
            assert len(store) <= config.max_sessions

        # Second round: touch every session again (restores parked ones),
        # continuing each walk where it left off.
        for i in range(num_sessions):
            now += 1.0
            ingest(store, f"soak-{i}",
                   walk_frames(frames_per_round,
                               start=(0.5 + 0.01 * i
                                      + 0.3 * frames_per_round * 0.1, 1.0),
                               t0=frames_per_round * 0.1),
                   now=now)
            assert store.live_count <= config.max_live

        assert len(store) == num_sessions
        for i in range(0, num_sessions, 37):
            session = store.get(f"soak-{i}", now=now)
            assert session.tracker is not None
            assert session.tracker.frames_ingested == 2 * frames_per_round
            tracks = session.tracker.tracks()
            assert len(tracks) == 1 and tracks[0].track_id == 1

        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert counters["sessions.created"] == num_sessions
        assert counters["sessions.frames"] == (2 * frames_per_round
                                               * num_sessions)
        # Every restore matches a prior parking, and the final gauges
        # account for every retained session.
        assert counters["sessions.restored"] <= counters["sessions.parked"]
        assert counters["sessions.restored"] >= num_sessions - config.max_live
        assert (gauges["sessions.live"] + gauges["sessions.parked"]
                == len(store))
        assert gauges["sessions.live"] <= config.max_live


@pytest.fixture(scope="module")
def tracked_scene() -> Scene:
    room = Rectangle.from_size(4.0, 4.0)
    built = Scene(room)
    walk = np.linspace([1.0, 1.0], [3.0, 3.0], 60)
    from repro.types import Trajectory
    built.add_human(Trajectory(walk, dt=0.1))
    return built


class TestServiceSessions:
    def test_tracked_requests_span_one_session(self, tracked_scene):
        config = fast_radar_config()
        with InProcessClient(quick_service_config(),
                             default_radar_config=config) as client:
            session_id = client.create_session(
                tracker_config=TRACKER_CONFIG)
            first = client.track(TrackRequest(
                session_id=session_id, scene=tracked_scene, duration=0.5,
                seed=3,
            ))
            second = client.track(TrackRequest(
                session_id=session_id, scene=tracked_scene, duration=0.5,
                seed=3,
            ))
        assert first.frames_added > 0
        assert second.frames_total == (first.frames_added
                                       + second.frames_added)
        # Continuity: the second chunk continued scene time, and the
        # walker kept its persistent identity across requests.
        assert second.session_id == session_id
        assert first.active_tracks
        best_first = max(first.active_tracks, key=lambda t: t.num_points)
        survivors = {t.track_id: t for t in second.active_tracks}
        assert best_first.track_id in survivors
        walker = survivors[best_first.track_id]
        assert walker.num_points > best_first.num_points

    def test_a_tracked_request_finalizes_its_tracker_once(
            self, tracked_scene, monkeypatch):
        finalized = []
        tracks = StreamingTracker.tracks

        def counted(tracker: StreamingTracker) -> list:
            finalized.append(tracker)
            return tracks(tracker)

        with InProcessClient(quick_service_config(),
                             default_radar_config=fast_radar_config(),
                             ) as client:
            session_id = client.create_session(
                tracker_config=TRACKER_CONFIG)
            monkeypatch.setattr(StreamingTracker, "tracks", counted)
            response = client.track(TrackRequest(
                session_id=session_id, scene=tracked_scene, duration=0.5,
                seed=3,
            ))
        assert response.frames_added > 0
        assert len(finalized) == 1

    def test_unknown_session_rejected_before_sensing(self, tracked_scene):
        config = fast_radar_config()
        with InProcessClient(quick_service_config(),
                             default_radar_config=config) as client:
            with pytest.raises(SessionNotFoundError):
                client.track(TrackRequest(
                    session_id="ghost", scene=tracked_scene, duration=0.4,
                ))
            snapshot = client.metrics_snapshot()
        counters = snapshot["counters"]
        assert isinstance(counters, dict)
        assert counters.get("requests.submitted", 0) == 0

    def test_checkpoint_restore_round_trip_through_service(
            self, tracked_scene):
        config = fast_radar_config()
        with InProcessClient(quick_service_config(),
                             default_radar_config=config) as client:
            session_id = client.create_session(
                tracker_config=TRACKER_CONFIG)
            client.track(TrackRequest(
                session_id=session_id, scene=tracked_scene, duration=0.5,
                seed=5,
            ))
            blob = client.end_session(session_id)
            assert session_id not in client.service.sessions

            restored_id = client.restore_session("revived",
                                                 json.loads(json.dumps(blob)))
            response = client.track(TrackRequest(
                session_id=restored_id, scene=tracked_scene, duration=0.5,
                seed=5,
            ))
            reference = client.service.sessions.checkpoint_of(restored_id)

            # The same two chunks through one uninterrupted session give
            # byte-identical tracker state.
            straight_id = client.create_session(
                tracker_config=TRACKER_CONFIG)
            for seed in (5, 5):
                client.track(TrackRequest(
                    session_id=straight_id, scene=tracked_scene,
                    duration=0.5, seed=seed,
                ))
            straight = client.service.sessions.checkpoint_of(straight_id)
        assert response.frames_total == len(reference["frame_times"])
        assert reference["active"] == straight["active"]
        assert reference["frame_times"] == straight["frame_times"]

    @pytest.mark.parametrize("corrupt, match", [
        (lambda blob: blob.pop("config"), r"missing keys \['config'\]"),
        (lambda blob: blob["active"][0]["filter"].update(covariance=[[1.0]]),
         r"covariance \(4, 4\)"),
    ], ids=["missing-config", "track-covariance-1x1"])
    def test_failed_restore_raises_typed_and_leaves_no_session(self, corrupt,
                                                               match):
        tracker = StreamingTracker(config=TRACKER_CONFIG)
        tracker.ingest_detections(0.0, [(np.array([1.0, 2.0]), 5.0)])
        blob = tracker.checkpoint()
        broken = json.loads(json.dumps(blob))
        corrupt(broken)
        with InProcessClient(quick_service_config(),
                             default_radar_config=fast_radar_config()
                             ) as client:
            with pytest.raises(TrackingError, match=match):
                client.restore_session("revived", broken)
            assert "revived" not in client.service.sessions
            # The id is free again, and a valid blob restores under it.
            assert client.restore_session("revived", blob) == "revived"
            assert client.service.sessions.checkpoint_of("revived") == blob

    @pytest.mark.parametrize("snapshot", ["session_checkpoint", "end_session"])
    def test_snapshot_waits_for_the_request_holding_the_lock(
            self, tracked_scene, snapshot):
        """A snapshot taken mid-request includes that request's frames.

        The tracked request holds the session lock from before sensing
        until its frames are ingested; ``session_checkpoint`` and
        ``end_session`` take the same lock, so a blob cut while the
        request is in flight already holds every frame it reports.
        """
        async def run() -> tuple[dict, object]:
            service = SenseService(quick_service_config(),
                                   default_radar_config=fast_radar_config())
            async with service:
                session_id = await service.create_session(
                    tracker_config=TRACKER_CONFIG)
                request = asyncio.ensure_future(service.submit_tracked(
                    TrackRequest(session_id=session_id, scene=tracked_scene,
                                 duration=0.4, seed=4)
                ))
                lock = service.sessions.peek(session_id).lock
                for _ in range(1000):
                    if lock.locked():
                        break
                    await asyncio.sleep(0)
                assert lock.locked()
                blob = await getattr(service, snapshot)(session_id)
                response = await request
            return blob, response

        blob, response = asyncio.run(run())
        assert response.frames_added > 0
        assert len(blob["frame_times"]) == response.frames_total

    def test_live_bound_restored_after_concurrent_burst(self, tracked_scene):
        """max_live overshoots only while requests are in flight.

        Sessions mid-ingestion hold their lock and cannot be parked, so a
        5-way concurrent burst against ``max_live=2`` legitimately runs 5
        live trackers — but as the burst drains, finishing requests
        rebalance the store back under the bound.
        """
        config = fast_radar_config()

        async def run() -> int:
            service = SenseService(
                quick_service_config(),
                default_radar_config=config,
                session_config=SessionConfig(max_live=2, max_sessions=16),
            )
            async with service:
                ids = [await service.create_session(
                    tracker_config=TRACKER_CONFIG) for _ in range(5)]
                await asyncio.gather(*(
                    service.submit_tracked(TrackRequest(
                        session_id=session_id, scene=tracked_scene,
                        duration=0.4, seed=0,
                    ))
                    for session_id in ids
                ))
                return service.sessions.live_count

        assert asyncio.run(run()) <= 2

    def test_flusher_sweep_parks_idle_sessions(self, tracked_scene):
        config = fast_radar_config()

        async def run() -> dict:
            service = SenseService(
                quick_service_config(batch_window_ms=2.0),
                default_radar_config=config,
                session_config=SessionConfig(idle_timeout_s=0.05,
                                             sweep_interval_s=0.02),
            )
            async with service:
                session_id = await service.create_session(
                    tracker_config=TRACKER_CONFIG)
                await service.submit_tracked(TrackRequest(
                    session_id=session_id, scene=tracked_scene,
                    duration=0.4, seed=1,
                ))
                for _ in range(100):
                    if not service.sessions.peek(session_id).live:
                        break
                    await asyncio.sleep(0.02)
                parked = not service.sessions.peek(session_id).live
                evicted = service.metrics.snapshot()["counters"].get(
                    "sessions.evicted", 0)

                # Touching the parked session restores it transparently.
                response = await service.submit_tracked(TrackRequest(
                    session_id=session_id, scene=tracked_scene,
                    duration=0.4, seed=2,
                ))
            return {"parked": parked, "evicted": evicted,
                    "frames_total": response.frames_total,
                    "frames_added": response.frames_added,
                    "restored": service.metrics.snapshot()["counters"].get(
                        "sessions.restored", 0)}

        outcome = asyncio.run(run())
        assert outcome["parked"]
        assert outcome["evicted"] >= 1
        assert outcome["restored"] >= 1
        assert outcome["frames_total"] > outcome["frames_added"]


class TestTrackedArrays:
    """A tracked chunk is located with the array of the radar that sensed it.

    Two sessions alternate between the demo radar and the same radar moved
    1 m. With ``max_live=1`` every request restores its session from a
    checkpoint; with ``max_live=8`` both stay live. Both must answer like a
    direct sense of each chunk followed by ingestion with its own array.
    """

    DURATION = 0.4
    MAX_RANGE = 8.0
    SESSIONS = ("a", "b")

    @pytest.fixture(scope="class")
    def demo(self):
        scene, config = build_demo_scene()
        shifted = dataclasses.replace(
            config, position=(config.position[0] + 1.0, config.position[1]))
        return scene, config, [config, shifted, config, shifted]

    def served(self, demo, max_live):
        scene, config, chunks = demo

        async def run():
            service = SenseService(
                quick_service_config(), default_radar_config=config,
                session_config=SessionConfig(max_live=max_live,
                                             max_sessions=16))
            async with service:
                for session_id in self.SESSIONS:
                    await service.create_session(
                        session_id, tracker_config=TRACKER_CONFIG)
                answers = []
                for k, chunk_config in enumerate(chunks):
                    for session_id in self.SESSIONS:
                        response = await service.submit_tracked(TrackRequest(
                            session_id=session_id, scene=scene,
                            duration=self.DURATION, seed=k,
                            config=chunk_config,
                            start_time=k * self.DURATION,
                            max_range=self.MAX_RANGE,
                        ))
                        answers.append((response.frames_added,
                                        response.frames_total,
                                        response.tracks,
                                        response.active_tracks))
                restores = service.metrics.snapshot()["counters"].get(
                    "sessions.restored", 0)
            return answers, restores

        return asyncio.run(run())

    def direct(self, demo):
        scene, _config, chunks = demo
        trackers = {session_id: StreamingTracker(None, TRACKER_CONFIG)
                    for session_id in self.SESSIONS}
        answers = []
        for k, chunk_config in enumerate(chunks):
            result = FmcwRadar(chunk_config).sense(
                scene, self.DURATION, rng=np.random.default_rng(k),
                start_time=k * self.DURATION, max_range=self.MAX_RANGE)
            for session_id in self.SESSIONS:
                tracker = trackers[session_id]
                before = tracker.frames_ingested
                tracker.array = result.array
                for profile in result.profiles:
                    tracker.ingest(profile)
                answers.append((
                    tracker.frames_ingested - before,
                    tracker.frames_ingested,
                    tuple(TrackSnapshot.from_track(track)
                          for track in tracker.tracks()),
                    tuple(TrackSnapshot.from_track(track)
                          for track in tracker.active_tracks),
                ))
        return answers

    def test_parked_and_live_sessions_answer_alike(self, demo):
        parked, restores = self.served(demo, max_live=1)
        live, no_restores = self.served(demo, max_live=8)
        assert restores > 0 and no_restores == 0
        assert parked == live
        assert live == self.direct(demo)


class TestTrackedRangeCrop:
    """Tracked requests with a degenerate crop fail or track cleanly."""

    def test_empty_crop_fails_typed_and_leaves_session_untouched(self):
        scene, config = build_demo_scene()

        async def run():
            async with SenseService(quick_service_config(),
                                    default_radar_config=config) as service:
                session_id = await service.create_session(
                    tracker_config=TRACKER_CONFIG)
                with pytest.raises(ConfigurationError,
                                   match=r"min_range=0\.6, max_range=0\.5"):
                    await service.submit_tracked(TrackRequest(
                        session_id=session_id, scene=scene, duration=0.3,
                        seed=0, max_range=0.5))
                checkpoint = await service.session_checkpoint(session_id)
                executed = service.metrics.snapshot()["counters"].get(
                    "batches.executed", 0)
            return checkpoint, executed

        checkpoint, executed = asyncio.run(run())
        assert checkpoint["frame_times"] == []
        assert executed == 0

    def test_one_bin_crop_ingests_frames_without_tracks(self):
        scene, config = build_demo_scene()
        ranges = range_axis(config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)
        one_bin = float(ranges[ranges >= config.min_range][0])

        async def run():
            async with SenseService(quick_service_config(),
                                    default_radar_config=config) as service:
                session_id = await service.create_session(
                    tracker_config=TRACKER_CONFIG)
                return await service.submit_tracked(TrackRequest(
                    session_id=session_id, scene=scene, duration=0.5,
                    seed=0, max_range=one_bin))

        response = asyncio.run(run())
        assert response.frames_added == response.frames_total > 0
        assert response.tracks == ()
        assert response.active_tracks == ()
