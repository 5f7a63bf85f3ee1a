"""Tracker throughput benches: streaming ingestion vs the batch driver.

The streaming≡batch contract (``tests/test_property_tracker.py``) says the
two paths produce identical tracks; this bench pins the *cost* side: since
``track_detections`` is literally a loop over ``StreamingTracker.ingest``
plus one ``tracks()`` call, frame-at-a-time streaming may cost at most 10%
over handing the tracker the whole sweep — there is no batch fast path to
drift away from, and this guard keeps anyone from adding one that makes
live sessions second-class.

Also reports raw streaming throughput (frames/s, detections/s) on a
multi-target crossing workload and dumps the timings to
``tracker-timings.json``, uploaded by CI next to the other timing
artifacts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.radar.tracker import StreamingTracker, TrackerConfig, track_detections

from .conftest import FULL_SCALE, write_timings

NUM_FRAMES = 4000 if FULL_SCALE else 1200
NUM_TARGETS = 4

CONFIG = TrackerConfig(min_track_points=5, min_hit_ratio=0.2,
                       cluster_radius=0.3, gate_distance=1.0)

_RESULTS: dict[str, float] = {}


@pytest.fixture(scope="module")
def detection_frames():
    """Crossing constant-velocity targets with noise and dropouts."""
    rng = np.random.default_rng(2022)
    crossing_point = np.array([4.0, 3.0])
    velocities = rng.uniform(-0.6, 0.6, (NUM_TARGETS, 2))
    powers = rng.uniform(5.0, 50.0, NUM_TARGETS)
    times = 0.1 * np.arange(NUM_FRAMES, dtype=np.float64)
    t_mid = times[NUM_FRAMES // 2]
    frames = []
    for t in times:
        detections = []
        for k in range(NUM_TARGETS):
            if rng.uniform() < 0.1:  # dropout
                continue
            truth = crossing_point + velocities[k] * ((t - t_mid) % 60.0)
            measured = truth + rng.normal(0.0, 0.03, 2)
            detections.append((measured, float(powers[k])))
        frames.append((float(t), detections))
    return frames


def best_of(fn, rounds=3):
    elapsed = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - started)
    return min(elapsed)


def run_streaming(frames):
    tracker = StreamingTracker(config=CONFIG)
    for frame_time, detections in frames:
        tracker.ingest_detections(frame_time, detections)
    return tracker.tracks()


@pytest.mark.benchmark(group="tracker")
def test_bench_streaming_ingestion(benchmark, detection_frames):
    """Frame-at-a-time ingestion throughput across the full sweep.

    Under ``--benchmark-disable`` the fixture runs once, untimed, and the
    rate comes from this file's own best-of timing instead.
    """
    tracks = benchmark(run_streaming, detection_frames)
    assert tracks, "workload produced no tracks"

    if benchmark.enabled:
        per_run_s = benchmark.stats.stats.min
    else:
        per_run_s = best_of(lambda: run_streaming(detection_frames))
    frames_per_s = NUM_FRAMES / per_run_s
    detections = sum(len(d) for _t, d in detection_frames)
    _RESULTS["streaming_min_s"] = per_run_s
    print(f"\nstreaming: {NUM_FRAMES} frames x {NUM_TARGETS} targets in "
          f"{per_run_s * 1e3:.1f} ms ({frames_per_s:.0f} frames/s, "
          f"{detections / per_run_s:.0f} detections/s)")


def test_streaming_overhead_vs_batch_within_10pct(detection_frames):
    """Streaming may cost at most 10% over the batch driver.

    Measured directly (5 alternating rounds per side) rather than through
    pytest-benchmark so the ratio can be asserted as a regression guard.
    The two paths run the same code today; the margin absorbs timer noise,
    not architecture. The rounds alternate (streaming, batch, streaming,
    ...), so a drift in host speed lands on both sides of a round, and the
    guard reads the median of the per-round ratios (the estimator of
    ``benchmarks/test_bench_nn.py``): the ratio of two independent
    minimums swung from 0.83 to 1.30 on identical code.
    """
    run_streaming(detection_frames)  # warm allocator and caches
    streaming, batch = [], []
    for _ in range(5):
        streaming.append(best_of(
            lambda: run_streaming(detection_frames), rounds=1))
        batch.append(best_of(
            lambda: track_detections(detection_frames, CONFIG), rounds=1))

    overhead = float(np.median([s / b for s, b in zip(streaming, batch)]))
    streaming_s, batch_s = min(streaming), min(batch)
    _RESULTS.update({
        "overhead.streaming_min_s": streaming_s,
        "overhead.batch_min_s": batch_s,
    })
    print(f"\nstreaming {streaming_s * 1e3:.1f} ms vs batch "
          f"{batch_s * 1e3:.1f} ms (best of 5 each): median round "
          f"ratio {overhead:.3f}x")
    assert overhead <= 1.10, (
        f"streaming ingestion costs {overhead:.2f}x the batch driver"
    )

    # And identically: the perf guard must not paper over a result drift.
    stream_tracks = run_streaming(detection_frames)
    batch_tracks = track_detections(detection_frames, CONFIG)
    assert len(stream_tracks) == len(batch_tracks)
    for ours, theirs in zip(stream_tracks, batch_tracks):
        assert ours.track_id == theirs.track_id
        assert ours.times == theirs.times


def test_zz_dump_tracker_timings():
    """Write the accumulated tracker numbers (runs last by name)."""
    assert _RESULTS, "no tracker timings accumulated"
    write_timings("tracker-timings.json", _RESULTS)
