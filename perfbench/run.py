"""The repository's benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Workloads (all closed loops driven by one thread):

- ``figures``: one op is one cold ``rfprotect run all --fast`` command in
  a fresh interpreter (``work_figures.py``); the command takes no input,
  so the seed is unused.
- ``serve``: lockstep rounds of 32 stateless and 28 tracked requests
  against one ``SenseService`` (``work_serve.py``).
- ``gan-step``: one op is one paper-scale cGAN training step
  (``work_gan.py``).

Each workload makes its inputs from ``--seed`` and passes the program only
those inputs. It measures for ``--seconds`` seconds (``serve`` runs at
least enough rounds for its tail percentiles), checks the program's
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records spans around calls into each
layer and reports the per-layer metrics instead, writing the spans to
``.perfbench_out/``. Per-layer times are per op (a command, a training
step, or a serve round); per-layer counts cover a fixed count window (the
first op, or the first serve rounds); a layer a workload does not run
reports 0. ``trace.op_p50_ms`` is ``op_p50_ms`` under tracing, so its
difference from an untraced run's ``op_p50_ms`` is the tracing overhead.
``setup_s`` is the time from process start to the first set-up build plus
the median of several builds (``common.setup_seconds``). Before the result
line a run prints ``counts`` (the exact-repeat counts) and ``host`` (thread
settings, versions, CPU steal and load average — diagnostics only).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from hostinfo import HostProbe, pin_threads  # noqa: E402

pin_threads()

from common import (EXPERIMENT_IDS, OUT_DIR, REFERENCE_PATH, ROOT,  # noqa: E402
                    STAGES)
from spans import Tracer  # noqa: E402

WORKLOADS = {"figures": "work_figures", "serve": "work_serve",
             "gan-step": "work_gan"}

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}

PER_LAYER: dict[str, str] = {
    "cli.import_s": "s",
    **{f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS},
    "experiments.unstaged_s": "s",
    **{name: unit for stage in STAGES
       for name, unit in ((f"radar.{stage}_s", "s"),
                          (f"radar.{stage}.calls", "count"))},
    "radar.frames": "count",
    "radar.components": "count",
    "radar.dropped_tones": "count",
    "nn.lstm_fwd_s": "s",
    "nn.lstm_fwd.calls": "count",
    "nn.lstm_bwd_s": "s",
    "nn.lstm_bwd.calls": "count",
    "gan.d_step_s": "s",
    "gan.g_step_s": "s",
    "nn.optim_s": "s",
    "nn.lstm_gflop": "GFLOP",
    "serve.sense_p50_ms": "ms",
    "serve.sense_p99_ms": "ms",
    "serve.track_p50_ms": "ms",
    "serve.track_p99_ms": "ms",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.batches": "count",
    "serve.batch_fill": "1",
    "serve.engine_busy_s": "s",
    "serve.engine_util": "1",
    "serve.loop_lag_ms.p99": "ms",
    "serve.session.restores": "count",
    "serve.session.parks": "count",
    "serve.session.restore_ratio": "1",
    "serve.session.restore_s": "s",
    "trace.op_p50_ms": "ms",
    "trace.spans": "count",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle).get(args.workload, {})

    host = HostProbe()
    tracer = Tracer(bool(args.trace))
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(seed=args.seed, seconds=args.seconds, tracer=tracer,
                         reference=reference, t_start=T_START)

    if args.trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(outcome.metrics)
        values["trace.spans"] = len(tracer.spans)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
        units = PER_LAYER
    else:
        values = outcome.metrics
        units = END_TO_END
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {sorted(missing)}, "
                           f"unexpected {sorted(extra)}")

    print("detail " + json.dumps(outcome.detail, sort_keys=True))
    print("counts " + json.dumps(outcome.counts, sort_keys=True))
    print("host " + json.dumps(host.report(), sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
