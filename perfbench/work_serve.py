"""``serve``: stateless and tracked requests sharing one ``SenseService``.

The service is built explicitly — ``ServiceConfig()`` and
``SessionConfig(max_live=32, ...)`` — so no ``RF_PROTECT_*`` variable can
change the workload, and it is driven from this module's own asyncio
loop. The loop runs lockstep rounds; each round holds

- 32 stateless requests planned by ``TrafficMix().plan`` from the seed,
  on the scenes and radar configs of ``build_demo_scene`` (the inputs of
  ``rfprotect serve --mix``), 0.4 s each;
- one tracked 0.4 s chunk of the ``office`` demo scene for each of 16 hot
  sessions, which chunk every round;
- one tracked chunk for 12 of 48 cold sessions, each cold session chunking
  every 4th round. With 32 live sessions at most, every cold chunk
  restores a parked checkpoint: 12 restores in 28 tracked requests.

An op is one request; its latency runs from the moment its round is
issued to its response. Set-up builds every mix scene, starts the service,
creates the 64 sessions, and runs warm-up rounds until every session and
scenario has been served once; it is repeated, each time with a new
service, and ``setup_s`` reports the median. The timed rounds run on the
last service.

Output checks: every response reports the vectorized backend; every
tracked response added its chunk's frame count; and the first stateless
response of each of the first timed rounds is recomputed after the timed
window with ``FmcwRadar(config).sense`` and compared bitwise.

Importing this module imports the program and numpy, so import it after
``hostinfo.pin_threads()``.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import threading
import time
from typing import Any

import numpy as np
from repro.errors import ReproError
from repro.radar import FmcwRadar
from repro.scenarios import TrafficMix
from repro.serve import (BACKEND_VECTORIZED, SenseRequest, SenseService,
                         ServiceConfig, SessionConfig, TrackRequest)
from repro.serve.app import build_demo_scene
from repro.serve.engine import execute_batch

from common import (SETUP_REPEATS, STAGES, Outcome, layer_counters, median,
                    repeat_counts, setup_seconds, tail)
from spans import Tracer

STATELESS_PER_ROUND = 32
HOT_SESSIONS = 16
COLD_SESSIONS = 48
COLD_PERIOD = 4
MAX_LIVE = 32
SENSE_DURATION_S = 0.4
#: 36 rounds hold 1,152 stateless and 1,008 tracked requests: enough for
#: ten samples beyond each p99, and the window the exact counts cover.
MIN_ROUNDS = 36
#: Stateless responses recomputed per run (one from each early round).
CHECK_SAMPLE = 8
#: Per-round plan seeds are ``seed * ROUND_STRIDE + round``.
ROUND_STRIDE = 100_003


class _Run:
    """State of one serve run: inputs, service, and what was measured."""

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.mix = TrafficMix()
        self.scenes = {name: build_demo_scene(scenario=name)
                       for name in self.mix.scenarios}
        self.office = (self.scenes["office"] if "office" in self.scenes
                       else build_demo_scene())
        self.track_rng = np.random.default_rng(seed)
        self.engine_busy_s = 0.0
        self.restore_s = 0.0
        self._busy_lock = threading.Lock()

        def timed_execute(items: Any) -> Any:
            started = time.perf_counter()
            try:
                with tracer.span("serve.execute_batch",
                                 request=f"batch-{items[0].request_id}"):
                    return execute_batch(items)
            finally:
                with self._busy_lock:
                    self.engine_busy_s += time.perf_counter() - started

        self.service = SenseService(
            ServiceConfig(), default_radar_config=self.office[1],
            session_config=SessionConfig(max_live=MAX_LIVE, max_sessions=1024,
                                         idle_timeout_s=60.0,
                                         sweep_interval_s=5.0),
            execute=timed_execute if tracer.enabled else None)
        if tracer.enabled:
            self._wrap_session_get()
        self.frames_per_chunk = len(
            FmcwRadar(self.office[1]).frame_times(SENSE_DURATION_S))
        self.session_ids: list[str] = []

    def _wrap_session_get(self) -> None:
        store = self.service.sessions
        get = store.get

        def timed_get(session_id: str, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                with self.tracer.span("serve.session.get",
                                      request=session_id):
                    return get(session_id, **kwargs)
            finally:
                self.restore_s += time.perf_counter() - started

        store.get = timed_get  # type: ignore[method-assign]

    async def warm_up(self) -> int:
        """Create the sessions and serve every session and scenario once.

        Returns the index of the next round. Call with the service started.
        """
        self.session_ids = [await self.service.create_session()
                            for _ in range(HOT_SESSIONS + COLD_SESSIONS)]
        seen: set[str] = set()
        index = 0
        while index < COLD_PERIOD or seen != set(self.mix.scenarios):
            seen.update(planned.scenario for planned in self.mix.plan(
                STATELESS_PER_ROUND,
                base_seed=self.seed * ROUND_STRIDE + index))
            await self.run_round(index)
            index += 1
        return index

    def round_requests(self, index: int) -> tuple[list[Any], list[Any]]:
        """The stateless and tracked requests of round ``index``."""
        plan = self.mix.plan(STATELESS_PER_ROUND,
                             base_seed=self.seed * ROUND_STRIDE + index)
        stateless = []
        for planned in plan:
            scene, config = self.scenes[planned.scenario]
            stateless.append(SenseRequest(scene=scene,
                                          duration=SENSE_DURATION_S,
                                          seed=planned.seed, config=config))
        hot = self.session_ids[:HOT_SESSIONS]
        cold = [session for position, session in
                enumerate(self.session_ids[HOT_SESSIONS:])
                if position % COLD_PERIOD == index % COLD_PERIOD]
        seeds = self.track_rng.integers(0, 2**32, size=len(hot) + len(cold))
        tracked = [TrackRequest(session_id=session, scene=self.office[0],
                                duration=SENSE_DURATION_S, seed=int(seed))
                   for session, seed in zip(hot + cold, seeds)]
        return stateless, tracked

    async def run_round(self, index: int) -> list[tuple[str, float, bool,
                                                        Any, Any]]:
        """Issue one round and wait for all of it.

        Returns per request: kind, latency, whether it passed its checks,
        the request and the response (``None`` if it failed).
        """
        stateless, tracked = self.round_requests(index)
        issued = time.perf_counter()

        async def one(kind: str, position: int,
                      request: Any) -> tuple[str, float, bool, Any, Any]:
            name = "serve.submit" if kind == "sense" else "serve.submit_tracked"
            with self.tracer.span(name, request=f"r{index}-{position}"):
                try:
                    if kind == "sense":
                        response = await self.service.submit(request)
                        ok = response.backend == BACKEND_VECTORIZED
                    else:
                        response = await self.service.submit_tracked(request)
                        ok = (response.backend == BACKEND_VECTORIZED
                              and response.frames_added
                              == self.frames_per_chunk)
                except ReproError:
                    return kind, time.perf_counter() - issued, False, request, None
            return kind, time.perf_counter() - issued, ok, request, response

        with self.tracer.span("serve.round", request=f"round-{index}"):
            return await asyncio.gather(
                *(one("sense", position, request)
                  for position, request in enumerate(stateless)),
                *(one("track", len(stateless) + position, request)
                  for position, request in enumerate(tracked)))


def _recomputed_equal(request: Any, response: Any) -> bool:
    """Whether a direct ``FmcwRadar.sense`` reproduces ``response`` bitwise."""
    direct = FmcwRadar(request.config).sense(
        request.scene, request.duration,
        rng=np.random.default_rng(request.seed))
    served = response.result
    return (np.array_equal(served.times, direct.times)
            and np.array_equal(served.raw_profiles, direct.raw_profiles)
            and len(served.profiles) == len(direct.profiles)
            and all(np.array_equal(got.power, want.power)
                    and np.array_equal(got.ranges, want.ranges)
                    and np.array_equal(got.angles, want.angles)
                    for got, want in zip(served.profiles, direct.profiles)))


def _counters(run: _Run) -> dict[str, float]:
    """The layer counters plus the counters of this run's service."""
    snapshot = run.service.metrics.snapshot()
    counters = snapshot["counters"]
    batch = snapshot["histograms"].get("batch.size", {"count": 0, "sum": 0})
    return {
        **layer_counters(),
        "serve.batches": counters.get("batches.executed", 0),
        "serve.session.restores": counters.get("sessions.restored", 0),
        "serve.session.parks": counters.get("sessions.parked", 0),
        "batch.requests": batch["sum"],
        "engine_busy_s": run.engine_busy_s,
        "restore_s": run.restore_s,
    }


async def _measure(seed: int, seconds: float, tracer: Tracer,
                   t_start: float) -> Outcome:
    builds_started = time.perf_counter()
    builds: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        began = time.perf_counter()
        discarded = _Run(seed, tracer)
        async with discarded.service:
            await discarded.warm_up()
            builds.append(time.perf_counter() - began)
        del discarded
        gc.collect()
    began = time.perf_counter()
    run = _Run(seed, tracer)
    service = run.service
    loop = asyncio.get_running_loop()
    async with service:
        index = await run.warm_up()
        builds.append(time.perf_counter() - began)
        setup_s = setup_seconds(t_start, builds_started, builds)

        lag_s: list[float] = []
        stop = asyncio.Event()

        async def lag_probe() -> None:
            while not stop.is_set():
                before = loop.time()
                await asyncio.sleep(0.001)
                lag_s.append(loop.time() - before - 0.001)

        probe = asyncio.create_task(lag_probe()) if tracer.enabled else None
        results: list[tuple[str, float, bool, float]] = []
        round_s: list[float] = []
        sample: list[tuple[Any, Any]] = []
        start_counts = _counters(run)
        window_counts: dict[str, float] = {}
        started = time.perf_counter()
        while (len(round_s) < MIN_ROUNDS
               or time.perf_counter() - started < seconds):
            round_started = time.perf_counter()
            outcome = await run.run_round(index)
            round_s.append(time.perf_counter() - round_started)
            if len(round_s) <= CHECK_SAMPLE and outcome[0][4] is not None:
                sample.append((outcome[0][3], outcome[0][4]))
            results.extend(
                (kind, latency, ok,
                 response.queued_s if response is not None else 0.0)
                for kind, latency, ok, _, response in outcome)
            index += 1
            if len(round_s) == MIN_ROUNDS:
                window_counts = _counters(run)
        wall_s = time.perf_counter() - started
        end_counts = _counters(run)
        if probe is not None:
            stop.set()
            await probe

    mismatched = sum(not _recomputed_equal(request, response)
                     for request, response in sample)
    failed = sum(not ok for _, _, ok, _ in results) + mismatched
    latencies = {kind: [latency for k, latency, ok, _ in results
                        if k == kind and ok] for kind in ("sense", "track")}
    completed = sum(len(values) for values in latencies.values())
    split = {
        "serve.sense_p50_ms": median(latencies["sense"]) * 1e3,
        "serve.sense_p99_ms": (tail(latencies["sense"], 0.99) or 0.0) * 1e3,
        "serve.track_p50_ms": median(latencies["track"]) * 1e3,
        "serve.track_p99_ms": (tail(latencies["track"], 0.99) or 0.0) * 1e3,
    }
    window = {name: window_counts[name] - start_counts[name]
              for name in window_counts}
    counts = repeat_counts(window)
    detail = {"ops": len(results), "rounds": len(round_s), "wall_s": wall_s,
              "sample_mismatches": mismatched,
              **{name: round(value, 3) for name, value in split.items()}}

    if not tracer.enabled:
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": median(latencies["sense"] + latencies["track"]) * 1e3,
            "ops_per_s": completed / wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return Outcome(attempted=len(results), failed=failed, metrics=metrics,
                       counts=counts, detail=detail)

    rounds = len(round_s)
    total = {name: end_counts[name] - start_counts[name] for name in end_counts}
    queued = [queued_s for _, _, ok, queued_s in results if ok]
    tracked_in_window = MIN_ROUNDS * (
        HOT_SESSIONS + COLD_SESSIONS // COLD_PERIOD)
    workers = service.config.workers
    metrics = {
        **split,
        **{f"radar.{stage}_s": total[f"radar.{stage}_s"] / rounds
           for stage in STAGES},
        **{f"radar.{stage}.calls": window[f"radar.{stage}.calls"]
           for stage in STAGES},
        **{name: counts[name] for name in (
            "radar.frames", "radar.components", "radar.dropped_tones",
            "serve.batches", "serve.session.restores")},
        "serve.queue_wait_ms.p50": median(queued) * 1e3,
        "serve.queue_wait_ms.p99": (tail(queued, 0.99) or 0.0) * 1e3,
        "serve.batch_fill": (total["batch.requests"] / total["serve.batches"]
                             / service.config.max_batch_size),
        "serve.engine_busy_s": total["engine_busy_s"] / rounds,
        "serve.engine_util": total["engine_busy_s"] / (workers * wall_s),
        "serve.loop_lag_ms.p99": (tail(lag_s, 0.99) or 0.0) * 1e3,
        "serve.session.parks": window["serve.session.parks"],
        "serve.session.restore_ratio": (window["serve.session.restores"]
                                        / tracked_in_window),
        "serve.session.restore_s": total["restore_s"] / rounds,
        "trace.op_p50_ms": median(latencies["sense"]
                                  + latencies["track"]) * 1e3,
    }
    return Outcome(attempted=len(results), failed=failed, metrics=metrics,
                   counts=counts, detail=detail)


def run(*, seed: int, seconds: float, tracer: Tracer,
        reference: dict[str, Any], t_start: float) -> Outcome:
    return asyncio.run(_measure(seed, seconds, tracer, t_start))
