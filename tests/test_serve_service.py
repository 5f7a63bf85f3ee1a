"""Tests for the micro-batching sensing service (``repro.serve``).

Pins the subsystem's four contracts:

- **equivalence/determinism** — served results are bitwise identical to
  direct ``FmcwRadar.sense`` calls with the same parameters, for any
  submission order and any batch grouping (and inside 1e-10 of the
  per-frame oracle, ``tests/receive_oracle.py``);
- **saturation** — a full admission queue rejects with
  ``ServiceOverloadedError``; expired deadlines cancel queued work with
  ``DeadlineExceededError`` before compute is spent;
- **fault isolation** — when a fused batch fails, each request is retried
  alone on the production kernels, visibly (response backend + fallback
  counter): batch-mates keep their fault-free bits and only the poisoned
  request fails, with a typed ``ReproError``;
- **telemetry** — the metrics snapshot reports counts, batch sizes, and
  latency percentiles as JSON.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import functools
import itertools
import json
import threading

import numpy as np
import pytest

import repro.serve.engine as serve_engine
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    SceneError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.geometry import Rectangle
from repro.obs import MetricsRegistry
from repro.radar import FmcwRadar, RadarConfig, Scene
from repro.serve import (
    BACKEND_ISOLATED,
    BACKEND_VECTORIZED,
    BatchKey,
    InProcessClient,
    SenseRequest,
    SenseService,
    ServiceConfig,
    TrackRequest,
)
from repro.serve.engine import ExecutionItem, execute_batch
from repro.signal.chirp import ChirpConfig
from tests import receive_oracle

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def fast_radar_config(**overrides) -> RadarConfig:
    """A 64-sample chirp keeps every service test sub-second."""
    defaults = dict(
        chirp=ChirpConfig(duration=3.2e-5),
        position=(2.0, 0.1),
        facing_angle=np.pi / 2.0,
    )
    defaults.update(overrides)
    return RadarConfig(**defaults)


@pytest.fixture(scope="module")
def scene() -> Scene:
    room = Rectangle.from_size(4.0, 4.0)
    built = Scene(room)
    built.add_static((1.0, 3.0), rcs=4.0)
    built.add_static((3.2, 2.1), rcs=2.0)
    return built


@pytest.fixture(scope="module")
def radar_config() -> RadarConfig:
    return fast_radar_config()


def quick_service_config(**overrides) -> ServiceConfig:
    defaults = dict(max_batch_size=4, batch_window_ms=5.0, queue_depth=64,
                    default_deadline_s=10.0, workers=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


NON_FINITE = (float("nan"), float("inf"), float("-inf"))

#: Both request types; each validates its sensing fields the same way.
REQUEST_TYPES = (SenseRequest, functools.partial(TrackRequest, session_id="s"))


class TestRequestValidation:
    def test_bad_duration_rejected(self, scene):
        for make, duration in itertools.product(REQUEST_TYPES,
                                                (0.0, *NON_FINITE)):
            with pytest.raises(ConfigurationError, match="duration"):
                make(scene=scene, duration=duration)

    def test_bad_max_range_rejected(self, scene):
        for make, max_range in itertools.product(REQUEST_TYPES,
                                                 (-1.0, *NON_FINITE)):
            with pytest.raises(ConfigurationError, match="max_range"):
                make(scene=scene, duration=1.0, max_range=max_range)

    def test_bad_deadline_rejected(self, scene):
        for make, deadline_s in itertools.product(REQUEST_TYPES,
                                                  (0.0, *NON_FINITE)):
            with pytest.raises(ConfigurationError, match="deadline"):
                make(scene=scene, duration=1.0, deadline_s=deadline_s)

    def test_non_finite_start_time_rejected(self, scene):
        for make, start_time in itertools.product(REQUEST_TYPES, NON_FINITE):
            with pytest.raises(ConfigurationError, match="start_time"):
                make(scene=scene, duration=1.0, start_time=start_time)


class TestServiceConfig:
    def test_invalid_direct_construction_rejected(self):
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ConfigurationError, match="batch_window_ms"):
            ServiceConfig(batch_window_ms=-1.0)
        with pytest.raises(ConfigurationError, match="queue_depth"):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ConfigurationError, match="default_deadline_s"):
            ServiceConfig(default_deadline_s=0.0)
        with pytest.raises(ConfigurationError, match="workers"):
            ServiceConfig(workers=0)
        names = [field.name for field in dataclasses.fields(ServiceConfig)]
        for name, value in itertools.product(names, NON_FINITE):
            with pytest.raises(ConfigurationError, match=name):
                ServiceConfig(**{name: value})


class TestEquivalenceAndDeterminism:
    def test_served_results_bitwise_match_direct_sense(self, scene,
                                                       radar_config):
        seeds = [3, 1, 4, 1, 5, 9]  # includes a duplicate seed
        radar = FmcwRadar(radar_config)
        direct = [radar.sense(scene, 0.3, rng=np.random.default_rng(s))
                  for s in seeds]

        requests = [SenseRequest(scene=scene, duration=0.3, seed=s)
                    for s in seeds]
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            served = client.sense_many(requests)

        assert [r.backend for r in served] == [BACKEND_VECTORIZED] * len(seeds)
        for expected, response in zip(direct, served):
            result = response.result
            assert np.array_equal(result.times, expected.times)
            assert np.array_equal(result.raw_profiles, expected.raw_profiles)
            assert len(result.profiles) == len(expected.profiles)
            for got, want in zip(result.profiles, expected.profiles):
                assert np.array_equal(got.power, want.power)
                assert np.array_equal(got.ranges, want.ranges)
                assert np.array_equal(got.angles, want.angles)

    def test_equivalence_to_naive_reference_within_1e10(self, scene,
                                                        radar_config):
        radar = FmcwRadar(radar_config)
        naive = receive_oracle.sense(radar, scene, 0.3,
                                     rng=np.random.default_rng(11))
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            served = client.sense(
                SenseRequest(scene=scene, duration=0.3, seed=11)
            )
        for got, want in zip(served.result.profiles, naive.profiles):
            np.testing.assert_allclose(got.power, want.power, atol=1e-10)

    def test_arrival_order_and_grouping_do_not_change_results(self, scene,
                                                              radar_config):
        seeds = list(range(8))
        requests = {
            s: SenseRequest(scene=scene, duration=0.3, seed=s) for s in seeds
        }
        # Run 1: submission order 0..7, large batches.
        with InProcessClient(quick_service_config(max_batch_size=8),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many([requests[s] for s in seeds])
            first = dict(zip(seeds, responses))
        # Run 2: reversed order, singleton batches (window 0, size 1).
        with InProcessClient(
            quick_service_config(max_batch_size=1, batch_window_ms=0.0),
            default_radar_config=radar_config,
        ) as client:
            responses = client.sense_many(
                [requests[s] for s in reversed(seeds)]
            )
            second = dict(zip(reversed(seeds), responses))
        for s in seeds:
            assert np.array_equal(first[s].result.raw_profiles,
                                  second[s].result.raw_profiles)
            for got, want in zip(first[s].result.profiles,
                                 second[s].result.profiles):
                assert np.array_equal(got.power, want.power)

    def test_distinct_radar_configs_batch_separately_and_correctly(
            self, scene):
        config_a = fast_radar_config()
        config_b = fast_radar_config(frame_rate=20.0)
        direct_a = FmcwRadar(config_a).sense(scene, 0.3,
                                             rng=np.random.default_rng(2))
        direct_b = FmcwRadar(config_b).sense(scene, 0.3,
                                             rng=np.random.default_rng(2))
        requests = [
            SenseRequest(scene=scene, duration=0.3, seed=2, config=config_a),
            SenseRequest(scene=scene, duration=0.3, seed=2, config=config_b),
        ]
        with InProcessClient(quick_service_config(),
                             default_radar_config=config_a) as client:
            served_a, served_b = client.sense_many(requests)
        assert np.array_equal(served_a.result.raw_profiles,
                              direct_a.raw_profiles)
        assert np.array_equal(served_b.result.raw_profiles,
                              direct_b.raw_profiles)
        assert len(served_a.result.times) == len(direct_a.times)
        assert len(served_b.result.times) == len(direct_b.times)
        assert len(served_b.result.times) > len(served_a.result.times)


class BlockableExecute:
    """An injectable execute callable that parks until released."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, items):
        self.calls += 1
        assert self.release.wait(timeout=30.0), "test never released executor"
        return serve_engine.execute_batch(items)


class TestSaturationAndDeadlines:
    def test_full_queue_rejects_with_overload_error(self, scene,
                                                    radar_config):
        blocker = BlockableExecute()

        async def run() -> dict:
            service = SenseService(
                quick_service_config(max_batch_size=1, batch_window_ms=0.0,
                                     queue_depth=2, workers=1),
                default_radar_config=radar_config,
                execute=blocker,
            )
            async with service:
                request = SenseRequest(scene=scene, duration=0.3, seed=0)
                # First request: flushed instantly, occupies the one worker
                # (blocked inside the executor), leaving the queue empty.
                first = asyncio.ensure_future(service.submit(request))
                while blocker.calls == 0:
                    await asyncio.sleep(0.001)
                # Two more fill the admission queue.
                second = asyncio.ensure_future(service.submit(request))
                third = asyncio.ensure_future(service.submit(request))
                await asyncio.sleep(0.01)
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(request)
                rejected_count = service.metrics.snapshot()["counters"][
                    "requests.rejected"]
                blocker.release.set()
                responses = await asyncio.gather(first, second, third)
            return {"rejected": rejected_count, "responses": responses}

        outcome = asyncio.run(run())
        assert outcome["rejected"] == 1
        assert len(outcome["responses"]) == 3
        assert all(r.backend == BACKEND_VECTORIZED
                   for r in outcome["responses"])

    def test_expired_deadline_cancels_queued_work(self, scene, radar_config):
        blocker = BlockableExecute()

        async def run() -> int:
            service = SenseService(
                quick_service_config(max_batch_size=1, batch_window_ms=0.0,
                                     workers=1),
                default_radar_config=radar_config,
                execute=blocker,
            )
            async with service:
                hold = asyncio.ensure_future(service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=0)
                ))
                while blocker.calls == 0:
                    await asyncio.sleep(0.001)
                doomed = asyncio.ensure_future(service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=1,
                                 deadline_s=0.02)
                ))
                await asyncio.sleep(0.05)  # let the deadline lapse in queue
                calls_before_release = blocker.calls
                blocker.release.set()
                with pytest.raises(DeadlineExceededError):
                    await doomed
                await hold
                # The doomed request never reached the executor: only the
                # holding request's batch was executed.
                assert blocker.calls == calls_before_release == 1
                return service.metrics.snapshot()["counters"][
                    "requests.expired"]

        assert asyncio.run(run()) == 1

    def test_submit_to_stopped_service_raises_closed(self, scene,
                                                     radar_config):
        async def run() -> None:
            service = SenseService(quick_service_config(),
                                   default_radar_config=radar_config)
            with pytest.raises(ServiceClosedError):
                await service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=0)
                )

        asyncio.run(run())


class _Poisoned:
    """A scene entity whose emission raises ``error``, every time."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def emission_plan(self, times, array, channel):
        raise self.error


def poisoned_scene(scene: Scene, error: Exception) -> Scene:
    """``scene``'s reflectors plus one entity that fails to emit."""
    poisoned = Scene(scene.room)
    poisoned.entities.extend(scene.entities)
    poisoned.add(_Poisoned(error))
    return poisoned


def assert_same_bits(got, want) -> None:
    assert np.array_equal(got.raw_profiles, want.raw_profiles)
    assert len(got.profiles) == len(want.profiles)
    for a, b in zip(got.profiles, want.profiles):
        assert np.array_equal(a.power, b.power)


class TestFaultIsolation:
    def test_poisoned_request_leaves_batch_mates_bitwise_intact(
            self, scene, radar_config):
        """One failing request in 32: the other 31 keep fault-free bits."""
        radar = FmcwRadar(radar_config)
        key = BatchKey(config=radar_config,
                       max_range=radar.default_max_range(scene))
        requests = [SenseRequest(scene=scene, duration=0.3, seed=seed)
                    for seed in range(32)]
        requests[13] = SenseRequest(
            scene=poisoned_scene(scene, IndexError("injected")),
            duration=0.3, seed=13)
        items = [ExecutionItem(request_id=i, request=request, key=key)
                 for i, request in enumerate(requests)]

        outcomes = execute_batch(items)
        fault_free = execute_batch(items[:13] + items[14:])

        assert [o.request_id for o in outcomes] == list(range(32))
        assert {o.backend for o in outcomes} == {BACKEND_ISOLATED}
        assert {o.backend for o in fault_free} == {BACKEND_VECTORIZED}
        innocent = outcomes[:13] + outcomes[14:]
        for got, batched in zip(innocent, fault_free):
            assert got.error is None
            direct = radar.sense(scene, 0.3, max_range=key.max_range,
                                 rng=np.random.default_rng(got.request_id))
            assert_same_bits(got.result, batched.result)
            assert_same_bits(got.result, direct)

        poisoned = outcomes[13]
        assert poisoned.result is None
        assert isinstance(poisoned.error, ServeError)
        assert "request 13" in str(poisoned.error)
        assert "IndexError" in str(poisoned.error)
        assert isinstance(poisoned.error.__cause__, IndexError)

    def test_isolated_retries_are_counted_per_request(self, scene,
                                                       radar_config):
        """One poisoned request fails its batch: every request retries."""
        requests = [SenseRequest(scene=scene, duration=0.3, seed=seed)
                    for seed in range(3)]
        requests.append(SenseRequest(
            scene=poisoned_scene(scene, IndexError("injected")),
            duration=0.3, seed=3))
        with InProcessClient(
            quick_service_config(max_batch_size=len(requests),
                                 batch_window_ms=1000.0),
            default_radar_config=radar_config,
        ) as client:
            futures = [client.submit(request) for request in requests]
            concurrent.futures.wait(futures)
            counters = client.metrics_snapshot()["counters"]
        assert [future.exception() is None for future in futures] == [
            True, True, True, False]
        assert counters["batches.executed"] == 1
        assert counters["batches.fallback"] == 1
        assert counters["requests.isolated"] == len(requests)

    def test_repro_error_passes_through_unchanged(self, scene, radar_config):
        error = SceneError("injected scene fault")
        key = BatchKey(config=radar_config, max_range=4.0)
        items = [ExecutionItem(request_id=0, key=key, request=SenseRequest(
            scene=poisoned_scene(scene, error), duration=0.3, seed=0))]
        [outcome] = execute_batch(items)
        assert outcome.error is error

    def test_client_sees_a_typed_error(self, scene, radar_config):
        request = SenseRequest(
            scene=poisoned_scene(scene, IndexError("injected")),
            duration=0.3, seed=1)
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            with pytest.raises(ReproError, match="IndexError") as caught:
                client.sense(request)
        assert isinstance(caught.value.__cause__, IndexError)

    def test_vectorized_failure_retries_on_production_kernels(
            self, monkeypatch, scene, radar_config):
        def explode(key, items):
            raise RuntimeError("injected vectorized failure")

        monkeypatch.setattr(serve_engine, "_run_group_vectorized", explode)
        radar = FmcwRadar(radar_config)
        expected = radar.sense(scene, 0.3, rng=np.random.default_rng(5))

        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            response = client.sense(
                SenseRequest(scene=scene, duration=0.3, seed=5)
            )
            snapshot = client.metrics_snapshot()

        assert response.backend == BACKEND_ISOLATED
        assert np.array_equal(response.result.raw_profiles,
                              expected.raw_profiles)
        for got, want in zip(response.result.profiles, expected.profiles):
            assert np.array_equal(got.power, want.power)
        assert snapshot["counters"]["batches.fallback"] >= 1
        assert snapshot["counters"]["requests.completed"] == 1


class TestTelemetry:
    def test_snapshot_reports_counts_batches_and_latency(self, scene,
                                                         radar_config):
        requests = [SenseRequest(scene=scene, duration=0.3, seed=s)
                    for s in range(6)]
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many(requests)
            snapshot = client.metrics_snapshot()
            as_json = json.dumps(client.service.metrics.snapshot(),
                                 sort_keys=True)

        counters = snapshot["counters"]
        assert counters["requests.submitted"] == 6
        assert counters["requests.completed"] == 6
        assert counters["batches.executed"] >= 1

        batch_hist = snapshot["histograms"]["batch.size"]
        assert batch_hist["count"] == counters["batches.executed"]
        assert batch_hist["sum"] == 6.0
        assert any(bucket["count"] for bucket in batch_hist["buckets"])

        latency_hist = snapshot["histograms"]["request.latency_s"]
        assert latency_hist["count"] == 6
        assert 0.0 <= latency_hist["p50"] <= latency_hist["p95"]

        assert snapshot["gauges"]["queue.depth"] == 0.0
        assert json.loads(as_json) == json.loads(
            json.dumps(snapshot, sort_keys=True)
        )
        assert {r.batch_size for r in responses} <= {1, 2, 3, 4}

    def test_snapshot_accepts_caller_supplied_stamps(self):
        # The SessionStore now= convention: the registry never reads a
        # clock, so a snapshot stamped by the caller is byte-for-byte
        # reproducible — the property the audit ledger depends on.
        registry = MetricsRegistry()
        registry.inc("requests.submitted", 2)
        stamped = registry.snapshot(now=42.5, sequence=3)
        assert stamped["now"] == 42.5
        assert stamped["sequence"] == 3
        bare = registry.snapshot()
        assert "now" not in bare and "sequence" not in bare
        assert (json.dumps(registry.snapshot(now=42.5, sequence=3))
                == json.dumps(registry.snapshot(now=42.5, sequence=3)))

    def test_merged_growth_reads_as_if_observed_here(self):
        # The experiment runner's workers ship growth_since() back and the
        # parent merges it: the merged registry must read like one that
        # saw every observation itself.
        worker, direct, parent = (MetricsRegistry() for _ in range(3))
        for registry in (worker, direct):
            registry.inc("runs", 2)
            registry.observe("wall_s", 0.003)
        before = worker.snapshot()
        for registry in (worker, direct):
            registry.inc("runs")
            registry.inc("idle", 0)
            registry.observe("wall_s", 0.02)
            registry.observe("wall_s", 99.0)
            registry.observe("fresh_s", 0.5)
        parent.inc("runs", 2)
        parent.observe("wall_s", 0.003)
        growth = worker.growth_since(before)
        assert growth["counters"] == {"runs": 1, "idle": 0}
        parent.merge(growth)
        assert parent.snapshot() == direct.snapshot()

    def test_merge_rejects_other_bucket_bounds(self):
        source, target = MetricsRegistry(), MetricsRegistry()
        source.observe("wall_s", 0.1, (1.0, 2.0))
        target.observe("wall_s", 0.1, (1.0, 3.0))
        with pytest.raises(ValueError, match="cannot merge"):
            target.merge(source.growth_since(MetricsRegistry().snapshot()))


class TestResponseMetadata:
    def test_batch_size_and_timings_populated(self, scene, radar_config):
        with InProcessClient(
            quick_service_config(max_batch_size=8, batch_window_ms=20.0),
            default_radar_config=radar_config,
        ) as client:
            responses = client.sense_many(
                [SenseRequest(scene=scene, duration=0.3, seed=s)
                 for s in range(4)]
            )
        for response in responses:
            assert 1 <= response.batch_size <= 4
            assert response.queued_s >= 0.0
            assert response.total_s >= response.queued_s

    def test_request_ids_are_admission_ordered(self, scene, radar_config):
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many(
                [SenseRequest(scene=scene, duration=0.3, seed=s)
                 for s in range(3)]
            )
        ids = [r.request_id for r in responses]
        assert ids == sorted(ids)


class TestRangeCropAdmission:
    def test_empty_crop_rejected_before_it_joins_a_batch(self, scene,
                                                         radar_config):
        async def run():
            async with SenseService(quick_service_config(),
                                    default_radar_config=radar_config,
                                    ) as service:
                with pytest.raises(ConfigurationError,
                                   match=r"min_range=0\.6, max_range=0\.5"):
                    await service.submit(SenseRequest(
                        scene=scene, duration=0.3, seed=0, max_range=0.5))
                served = await service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=0))
                counters = service.metrics.snapshot()["counters"]
                counts = {name: counters.get(name, 0)
                          for name in ("requests.submitted",
                                       "batches.executed")}
            return served, counts

        served, counts = asyncio.run(run())
        # Only the valid request was admitted and executed.
        assert counts == {"requests.submitted": 1, "batches.executed": 1}
        assert served.result.profiles[0].power.shape[0] > 0
