"""``rfprotect serve``: run the sensing service on a demo spoofing workload.

Stands up an :class:`~repro.serve.client.InProcessClient` with the
default :class:`~repro.serve.service.ServiceConfig`, builds a scene
from a registered scenario (``--scenario``, default the office deployment
with a deployed RF-Protect tag spoofing a walking human) and fires a
burst of concurrent sense requests with distinct seeds at it, exactly the
shape of a GAN-in-the-loop training or parameter-sweep workload. With
``--mix`` each request's scenario is drawn from the registry's
traffic-weight mix (:class:`~repro.scenarios.TrafficMix`) instead, every
request carrying its scenario's radar config. Prints a per-backend
completion summary plus the latency/batch-size telemetry, and can export
the full metrics snapshot as JSON.

With ``--sessions N`` the demo switches to the *stateful* workload: N
concurrent tracking sessions, each sensing the scene in ``--chunks``
consecutive tracked requests whose frames feed one persistent
per-session tracker (the default
:class:`~repro.serve.session.SessionConfig` governs eviction). The
summary then includes per-session frame/track counts and the session
store's gauges.

Run: ``rfprotect serve --requests 32 --metrics-json metrics.json``
or:  ``rfprotect serve --sessions 8 --chunks 4``
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter as TallyCounter
from collections.abc import Sequence

import numpy as np

from repro.errors import ReproError
from repro.radar.config import RadarConfig
from repro.radar.scene import Scene
from repro.scenarios import TrafficMix, build
from repro.serve.client import InProcessClient
from repro.serve.request import SenseRequest, TrackRequest
from repro.serve.service import ServiceConfig
from repro.signal.chirp import ChirpConfig

__all__ = ["build_demo_scene", "main"]

#: Short demo chirp: 64 beat samples keeps a laptop-class host responsive
#: while exercising every stage of the sense pipeline.
DEMO_CHIRP_DURATION_S = 3.2e-5


def build_demo_scene(seed: int = 7,
                     scenario: str = "office") -> tuple[Scene, RadarConfig]:
    """A registered scenario's scene, on the shortened demo chirp.

    Returns the scene and the radar configuration it should be sensed
    with (the scenario's primary radar, demo chirp). Environment-only
    specs (no humans, no reflector — the classic ``office``/``home``
    deployments) get the traditional demo content: one deployed
    RF-Protect tag spoofing a walking human. Content-bearing specs are
    assembled by the scenario builder itself.
    """
    from repro.trajectories import HumanMotionSimulator

    built = build(scenario, seed=seed)
    fast_config = dataclasses.replace(
        built.environment.radar_config,
        chirp=ChirpConfig(duration=DEMO_CHIRP_DURATION_S),
    )
    environment = dataclasses.replace(built.environment,
                                      radar_config=fast_config)
    if built.spec.humans or built.spec.reflector.kind != "none":
        fast = dataclasses.replace(
            built, environment=environment,
            radar_configs=tuple(
                dataclasses.replace(config, chirp=fast_config.chirp)
                for config in built.radar_configs
            ),
        )
        return fast.build_scene(), fast_config

    rng = np.random.default_rng(seed)
    simulator = HumanMotionSimulator(rng=rng)
    controller = environment.make_controller()
    shape = simulator.sample_trajectory(profile_index=2).centered()
    placed = controller.place_trajectory(shape)
    schedule = controller.plan_trajectory(placed)
    tag = environment.make_tag()
    tag.deploy(schedule)

    scene = environment.make_scene()
    scene.add(tag)
    return scene, fast_config


def _run_session_demo(client: InProcessClient, scene: Scene, *,
                      sessions: int, chunks: int, duration: float) -> None:
    """Drive ``sessions`` concurrent tracking sessions, ``chunks`` each.

    Every chunk continues the previous one in scene time
    (``start_time=None``), so each session's tracker follows the ghost
    across the whole span under one set of persistent track IDs. Chunks
    are submitted as futures round by round — all sessions' chunk *k*
    in flight together — so tracked requests coalesce into shared
    sensing batches exactly like the stateless burst.
    """
    session_ids = [client.create_session() for _ in range(sessions)]
    last = None
    for chunk in range(chunks):
        futures = [
            client.submit_tracked(TrackRequest(
                session_id=session_id, scene=scene, duration=duration,
                seed=chunk,
            ))
            for session_id in session_ids
        ]
        last = [future.result() for future in futures]
    assert last is not None
    total_frames = sum(response.frames_total for response in last)
    tracked = sum(len(response.active_tracks) for response in last)
    print(f"{sessions} session(s) x {chunks} chunk(s): "
          f"{total_frames} frames ingested, "
          f"{tracked} active track(s) across sessions")
    for response in last[:4]:
        print(f"  {response.session_id}: {response.frames_total} frames, "
              f"{len(response.active_tracks)} active, "
              f"{len(response.tracks)} finalized")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``rfprotect serve``; returns the process exit code.

    A typed error (an unknown ``--scenario``, a non-finite
    ``--sense-duration``) prints ``error: <message>`` to stderr and
    returns 1, as ``rfprotect run`` does.
    """
    parser = argparse.ArgumentParser(
        prog="rfprotect serve",
        description="serve a demo ghost-injection sensing workload",
    )
    parser.add_argument(
        "--requests", type=int, default=16,
        help="concurrent sense requests to issue (default: 16)",
    )
    parser.add_argument(
        "--sense-duration", type=float, default=0.4,
        help="sensing span per request, seconds (default: 0.4)",
    )
    parser.add_argument(
        "--metrics-json", default=None,
        help="write the full metrics snapshot to this JSON file",
    )
    parser.add_argument(
        "--sessions", type=int, default=0,
        help="run the stateful demo with this many concurrent tracking "
             "sessions instead of the stateless burst (default: 0 = off)",
    )
    parser.add_argument(
        "--chunks", type=int, default=3,
        help="tracked requests per session in the stateful demo "
             "(default: 3)",
    )
    parser.add_argument(
        "--scenario", default="office",
        help="registered scenario to serve (default: 'office')",
    )
    parser.add_argument(
        "--mix", action="store_true",
        help="draw each request's scenario from the registry's traffic-"
             "weight mix instead of serving one scenario",
    )
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.sessions < 0:
        parser.error("--sessions must be >= 0")
    if args.chunks < 1:
        parser.error("--chunks must be >= 1")
    if args.mix and args.sessions > 0:
        parser.error("--mix applies to the stateless burst, not --sessions")
    try:
        return _serve(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _serve(args: argparse.Namespace) -> int:
    """Run the demo ``main`` parsed; its typed errors become exit code 1."""
    scene, radar_config = build_demo_scene(scenario=args.scenario)
    service_config = ServiceConfig()
    print(f"serving: max_batch={service_config.max_batch_size}, "
          f"window={service_config.batch_window_ms}ms, "
          f"queue_depth={service_config.queue_depth}, "
          f"workers={service_config.workers}")

    with InProcessClient(service_config,
                         default_radar_config=radar_config) as client:
        started = time.perf_counter()
        if args.sessions > 0:
            _run_session_demo(client, scene, sessions=args.sessions,
                              chunks=args.chunks,
                              duration=args.sense_duration)
            elapsed = time.perf_counter() - started
            print(f"session demo finished in {elapsed:.3f}s")
            snapshot = client.metrics_snapshot()
            gauges = snapshot["gauges"]
            assert isinstance(gauges, dict)
            print(f"session store: {gauges.get('sessions.live', 0):.0f} "
                  f"live, {gauges.get('sessions.parked', 0):.0f} parked")
        else:
            if args.mix:
                # Per-request scenarios drawn from the registry's traffic
                # weights; one scene (and demo radar config) per distinct
                # scenario, attached per request so mixed batches sense
                # with the right radar.
                plan = TrafficMix().plan(args.requests)
                cache: dict[str, tuple[Scene, RadarConfig]] = {
                    args.scenario: (scene, radar_config)
                }
                requests = []
                for planned in plan:
                    if planned.scenario not in cache:
                        cache[planned.scenario] = build_demo_scene(
                            scenario=planned.scenario)
                    mix_scene, mix_config = cache[planned.scenario]
                    requests.append(SenseRequest(
                        scene=mix_scene, duration=args.sense_duration,
                        seed=planned.seed, config=mix_config,
                    ))
                tally = TallyCounter(planned.scenario for planned in plan)
                print("traffic mix: " + ", ".join(
                    f"{count} {name}"
                    for name, count in sorted(tally.items())
                ))
            else:
                requests = [
                    SenseRequest(scene=scene, duration=args.sense_duration,
                                 seed=seed)
                    for seed in range(args.requests)
                ]
            responses = client.sense_many(requests)
            elapsed = time.perf_counter() - started
            snapshot = client.metrics_snapshot()

            backends = TallyCounter(
                response.backend for response in responses
            )
            backend_summary = ", ".join(
                f"{count} {backend}"
                for backend, count in sorted(backends.items())
            )
            frames = sum(
                len(response.result.times) for response in responses
            )
            print(f"completed {len(responses)} request(s) "
                  f"({backend_summary}) covering {frames} frames in "
                  f"{elapsed:.3f}s ({len(responses) / elapsed:.1f} req/s)")

    histograms = snapshot["histograms"]
    assert isinstance(histograms, dict)
    batch_hist = histograms.get("batch.size")
    latency_hist = histograms.get("request.latency_s")
    if isinstance(batch_hist, dict) and batch_hist["count"]:
        mean_batch = float(batch_hist["sum"]) / int(batch_hist["count"])
        print(f"batches: {batch_hist['count']} executed, "
              f"mean size {mean_batch:.1f}")
    if isinstance(latency_hist, dict):
        print(f"latency: p50 {float(latency_hist['p50']) * 1e3:.1f}ms, "
              f"p95 {float(latency_hist['p95']) * 1e3:.1f}ms")

    if args.metrics_json is not None:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        print(f"metrics snapshot written to {args.metrics_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
