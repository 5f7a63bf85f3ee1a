"""``gan-step``: one paper-scale cGAN training step per op.

The dataset is 32 traces from ``HumanMotionSimulator`` seeded by the
workload seed; the model is ``GanConfig.paper_scale()`` (LSTM(512)
generator, BiLSTM(512) discriminator) at batch 32, under
``dtype_scope("float32")``. One op is ``GanTrainer.train(epochs=1)``: one
discriminator step plus one generator step, continuing the same trainer.
Set-up builds the dataset and the trainer; it is repeated, and ``setup_s``
reports the median. Each step leaves its autograd graph as cyclic garbage
(about 85 MB at this size), so each op ends with a cyclic collection,
timed with the step; otherwise peak RSS would depend on how many steps a
run happened to fit before the collector's own thresholds fired.

Output check per step: both losses are finite and, for a seed with stored
references, match them within the tolerance the repository's float32
golden GAN digests use (BLAS kernels differ across machines).

Importing this module imports the program and numpy, so import it after
``hostinfo.pin_threads()``.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import resource
import time
from typing import Any

import numpy as np
from repro.errors import TrainingError
from repro.gan.trainer import GanConfig, GanTrainer
from repro.nn import dtype_scope
from repro.trajectories import HumanMotionSimulator

from common import (NnProbes, Outcome, counter_delta, layer_counters,
                    lstm_gflop, median, repeat_counts, repeated_setup,
                    summarize_ops)
from spans import Tracer

NUM_TRACES = 32
BATCH_SIZE = 32
#: The float32 tolerance of ``tests/test_golden_gan.py``.
LOSS_TOLERANCE = 5e-2


def make_trainer(seed: int) -> GanTrainer:
    """The seeded dataset and paper-scale trainer (call under float32)."""
    dataset = HumanMotionSimulator(
        rng=np.random.default_rng(seed)).build_dataset(NUM_TRACES)
    config = dataclasses.replace(GanConfig.paper_scale(),
                                 batch_size=BATCH_SIZE, seed=seed)
    return GanTrainer(dataset, config)


def losses_match(losses: list[float], expected: list[float]) -> bool:
    return all(math.isclose(got, want, rel_tol=LOSS_TOLERANCE,
                            abs_tol=LOSS_TOLERANCE)
               for got, want in zip(losses, expected))


def run(*, seed: int, seconds: float, tracer: Tracer,
        reference: dict[str, Any], t_start: float) -> Outcome:
    expected = reference.get(str(seed), [])
    probes = NnProbes()
    if tracer.enabled:
        probes.install()
    op_s: list[float] = []
    deltas: list[dict[str, float]] = []
    failed = 0
    with dtype_scope("float32"):
        trainer, setup_s = repeated_setup(lambda: make_trainer(seed), t_start)

        counters, probe_counters = layer_counters(), probes.snapshot()
        started = time.perf_counter()
        while not op_s or time.perf_counter() - started < seconds:
            step = len(op_s)
            before, probe_before = counters, probe_counters
            op_started = time.perf_counter()
            try:
                with tracer.span("gan.train", request=f"step-{step}"):
                    trainer.train(epochs=1)
                    gc.collect()
            except TrainingError:
                ok = False
            else:
                history = trainer.history
                losses = [history.discriminator_losses[-1],
                          history.generator_losses[-1]]
                ok = all(math.isfinite(loss) for loss in losses) and (
                    step >= len(expected)
                    or losses_match(losses, expected[step]))
            op_s.append(time.perf_counter() - op_started)
            failed += not ok
            counters, probe_counters = layer_counters(), probes.snapshot()
            delta = counter_delta(before, counters)
            probe = counter_delta(probe_before, probe_counters)
            delta["nn.optim_s"] = probe["optim_s"]
            delta["nn.lstm_gflop"] = lstm_gflop(
                probe["fwd_flops"], probe["fwd_layer_calls"],
                delta["nn.lstm_bwd.calls"])
            deltas.append(delta)
        wall_s = time.perf_counter() - started

    layers = summarize_ops(deltas)
    completed = len(op_s) - failed
    if tracer.enabled:
        metrics = dict(layers)
        metrics["trace.op_p50_ms"] = median(op_s) * 1e3
    else:
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": median(op_s) * 1e3,
            "ops_per_s": completed / wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return Outcome(attempted=len(op_s), failed=failed, metrics=metrics,
                   counts=repeat_counts(layers),
                   detail={"ops": len(op_s), "wall_s": wall_s,
                           "op_ms": [round(value * 1e3, 1) for value in op_s]})
