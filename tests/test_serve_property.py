"""Property tests for the micro-batching scheduler core (``MicroBatcher``).

The batcher is deliberately pure (explicit timestamps, no clock, no
asyncio), so hypothesis can drive it through arbitrary arrival patterns and
prove the conservation laws the service relies on:

- nothing is lost and nothing is duplicated: every admitted item appears in
  exactly one flushed batch;
- no batch ever exceeds ``max_batch_size``, and every batch is
  key-homogeneous;
- a ``"size"``-flushed batch is exactly full; a ``"window"``-flushed batch
  was held at least ``window_s`` (for positive windows);
- the same event sequence always produces the identical batch sequence
  (the scheduler itself is deterministic).

Downstream of the scheduler, the engine must make grouping invisible: a
request's result is bitwise the direct ``FmcwRadar.sense`` result however
the batch around it was cut — including batches that mix scenes, which
the engine emits one scene at a time.

At admission, any request's fields either fail with a typed error or
yield a batch key whose sweep fits the beat-cube budget, so no request
reaches an unbounded allocation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.geometry import Rectangle
from repro.radar import FmcwRadar, RadarConfig, Scene
from repro.radar.channel import ChannelModel, MultipathSpec
from repro.radar.scene import Fan, OcclusionSpec
from repro.reflector import ReflectorPanel, RfProtectTag
from repro.reflector.controller import SpoofCommand, SpoofSchedule
from repro.serve.batcher import Batch, MicroBatcher
from repro.radar.stages import MAX_SWEEP_BYTES
from repro.serve.engine import ExecutionItem, execute_batch, radar_for
from repro.serve.request import (
    BACKEND_VECTORIZED,
    BatchKey,
    SenseRequest,
    TrackRequest,
)
from repro.serve.service import SenseService
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory

KEYS = ("alpha", "beta", "gamma")


@dataclasses.dataclass(frozen=True)
class Arrival:
    key: str
    gap_s: float  # time since the previous event
    poll_before: bool  # run a due() poll before this add


arrivals = st.lists(
    st.builds(
        Arrival,
        key=st.sampled_from(KEYS),
        gap_s=st.floats(min_value=0.0, max_value=0.5, allow_nan=False,
                        allow_infinity=False),
        poll_before=st.booleans(),
    ),
    max_size=60,
)

batcher_params = st.tuples(
    st.integers(min_value=1, max_value=5),          # max_batch_size
    st.sampled_from([0.0, 0.01, 0.1, 1.0]),         # window_s
)


def run_schedule(max_batch_size: int, window_s: float,
                 events: list[Arrival]) -> list[Batch[str, int]]:
    """Feed the arrival schedule through a fresh batcher; drain at the end."""
    batcher: MicroBatcher[str, int] = MicroBatcher(
        max_batch_size=max_batch_size, window_s=window_s
    )
    flushed: list[Batch[str, int]] = []
    now = 0.0
    for item_id, event in enumerate(events):
        now += event.gap_s
        if event.poll_before:
            flushed.extend(batcher.due(now))
        full = batcher.add(event.key, item_id, now)
        if full is not None:
            flushed.append(full)
    flushed.extend(batcher.drain(now + 1.0))
    assert batcher.pending_count() == 0
    return flushed


@given(params=batcher_params, events=arrivals)
@settings(max_examples=200, deadline=None)
def test_no_item_lost_or_duplicated(params, events):
    max_batch_size, window_s = params
    flushed = run_schedule(max_batch_size, window_s, events)
    delivered = [item for batch in flushed for item in batch.items]
    assert sorted(delivered) == list(range(len(events)))


@given(params=batcher_params, events=arrivals)
@settings(max_examples=200, deadline=None)
def test_batch_invariants(params, events):
    max_batch_size, window_s = params
    flushed = run_schedule(max_batch_size, window_s, events)
    for batch in flushed:
        assert 1 <= len(batch) <= max_batch_size
        assert {events[item].key for item in batch.items} == {batch.key}
        assert batch.reason in ("size", "window", "drain")
        assert batch.flushed_at >= batch.opened_at
        if batch.reason == "size":
            assert len(batch) == max_batch_size
        if batch.reason == "window" and window_s > 0:
            # A window flush only happens once the first arrival has
            # genuinely waited out the latency budget.
            assert batch.flushed_at - batch.opened_at >= window_s


@given(params=batcher_params, events=arrivals)
@settings(max_examples=100, deadline=None)
def test_schedule_is_deterministic(params, events):
    max_batch_size, window_s = params
    first = run_schedule(max_batch_size, window_s, events)
    second = run_schedule(max_batch_size, window_s, events)
    assert first == second


# --------------------------------------------------------------------------
# Engine: grouping independence over batches that mix scenes
# --------------------------------------------------------------------------

RADAR_CONFIG = RadarConfig(chirp=ChirpConfig(duration=3.2e-5),
                           position=(3.0, 0.1), facing_angle=np.pi / 2.0)
RADAR = FmcwRadar(RADAR_CONFIG)
KEY = BatchKey(config=RADAR_CONFIG, max_range=8.0)


def _mixed_scenes() -> list[Scene]:
    """Three scenes sharing one radar config: clutter, crowd, ghost."""
    room = Rectangle.from_size(6.0, 6.0)
    clutter = Scene(room)
    clutter.add_static((1.0, 4.0), rcs=3.0)
    clutter.add(Fan((4.5, 3.0)))
    crowd = Scene(room, channel=ChannelModel(multipath=MultipathSpec()),
                  occlusion=OcclusionSpec())
    crowd.add_static((5.0, 5.0))
    crowd.add_human(Trajectory(np.array([[3.0, 4.5], [3.1, 4.0]]), dt=1.0))
    crowd.add_human(Trajectory(np.array([[3.0, 2.0], [2.0, 2.5]]), dt=1.0))
    ghost = Scene(room, channel=ChannelModel(multipath=MultipathSpec()))
    tag = RfProtectTag(ReflectorPanel((3.0, 0.6)))
    tag.deploy(SpoofSchedule(
        [SpoofCommand(0.1 * k, k % 6, 2.0e4 + 1.0e3 * k, 0.3 * k, (0.0, 0.0))
         for k in range(8)], command_interval=0.1))
    ghost.add(tag)
    ghost.add_human(Trajectory(np.array([[1.0, 3.0], [2.0, 3.5]]), dt=1.0))
    return [clutter, crowd, ghost]


SCENES = _mixed_scenes()

requests = st.lists(
    st.tuples(st.integers(0, len(SCENES) - 1), st.integers(0, 2**31),
              st.sampled_from([0.2, 0.3, 0.5]),
              st.sampled_from([0.0, 0.2])),
    min_size=1, max_size=6)


@given(plan=requests, cuts=st.lists(st.booleans(), min_size=6, max_size=6))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_grouping_independence_with_mixed_scenes(plan, cuts):
    items = [ExecutionItem(request_id=i, key=KEY, request=SenseRequest(
        scene=SCENES[scene], duration=duration, seed=seed,
        config=RADAR_CONFIG, start_time=start, max_range=KEY.max_range))
        for i, (scene, seed, duration, start) in enumerate(plan)]
    batches, current = [], [items[0]]
    for item, cut in zip(items[1:], cuts):
        if cut:
            batches.append(current)
            current = []
        current.append(item)
    batches.append(current)
    outcomes = [outcome for batch in batches
                for outcome in execute_batch(batch)]
    for item, outcome in zip(items, outcomes):
        assert outcome.backend == BACKEND_VECTORIZED
        request = item.request
        direct = RADAR.sense(request.scene, request.duration,
                             rng=np.random.default_rng(request.seed),
                             start_time=request.start_time,
                             max_range=KEY.max_range)
        assert outcome.result is not None
        assert np.array_equal(outcome.result.raw_profiles,
                              direct.raw_profiles)
        for got, want in zip(outcome.result.profiles, direct.profiles):
            assert np.array_equal(got.power, want.power)


# --------------------------------------------------------------------------
# Admission: a request's sweep is bounded before anything is allocated
# --------------------------------------------------------------------------

#: The demo-sized default, the paper-sized default, and a chirp whose
#: frames alone overrun the budget (7 x 1e8 samples).
ADMISSION_CONFIGS = [
    RADAR_CONFIG,
    RadarConfig(),
    RadarConfig(chirp=ChirpConfig(duration=0.05, sample_rate=2.0e9)),
]
SERVICE = SenseService(default_radar_config=RADAR_CONFIG)

spans = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=1e3, max_value=1e308),
    st.sampled_from([1e9, 1e300, 3.7e4, 3.8e4, 2.4e3]),
)
optional_floats = st.none() | st.floats(min_value=0.5, max_value=50.0) | st.floats()


@given(tracked=st.booleans(), duration=spans, start=st.floats(),
       max_range=optional_floats, deadline=optional_floats,
       config=st.sampled_from([None, *ADMISSION_CONFIGS]),
       seed=st.integers(0, 2**63), session=st.text(max_size=4))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_admission_fails_typed_or_bounds_the_sweep(
        tracked, duration, start, max_range, deadline, config, seed,
        session):
    fields = dict(scene=SCENES[0], duration=duration, seed=seed,
                  config=config, max_range=max_range, deadline_s=deadline)
    try:
        if tracked:
            request = TrackRequest(session_id=session, start_time=None,
                                   **fields).sense_request(start)
        else:
            request = SenseRequest(start_time=start, **fields)
        key = SERVICE.batch_key_for(request)
    except ReproError:
        return
    frames = max(int(round(request.duration * key.config.frame_rate)), 2)
    assert (frames * 16 * math.prod(key.config.frame_shape)
            <= MAX_SWEEP_BYTES)
    times = radar_for(key.config).frame_times(request.duration,
                                              request.start_time)
    assert times.shape == (frames,)
