"""Shared pieces of the benchmark: results, statistics, layer counters.

Layer counters are read from the program's public instruments at op
boundaries: :func:`repro.radar.stages.stage_metrics`,
:func:`repro.nn.nn_metrics` and :data:`repro.radar.SYNTH_STATS`. The nn
probes (optimizer time, computed LSTM GEMM work) wrap public methods; they
are installed in traced runs only and stay until the process ends.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any, TypeVar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PATH = HERE / "reference.json"

STAGES = ("emit", "synthesize", "range_fft", "background_subtract",
          "beamform", "detect")

EXPERIMENT_IDS = ("ext-floorplan", "ext-multiradar", "ext-pulsed", "fig10",
                  "fig11", "fig12", "fig13", "fig14", "fig7", "fig9",
                  "table1")

#: Counts printed by every run. Each covers a fixed count window (one
#: command, one training step, or the first serve rounds), so two runs
#: with one seed must print identical values.
REPEAT_COUNTS = ("radar.frames", "radar.components", "radar.dropped_tones",
                 "serve.batches", "serve.session.restores",
                 "nn.lstm_fwd.calls")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

T = TypeVar("T")


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced run; ``counts`` holds the exact-repeat
    counts; ``detail`` holds diagnostics that are printed but not gated.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    counts: dict[str, int]
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float], q: float) -> float | None:
    """The ``q`` quantile, or ``None`` unless ten samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return float(ordered[min(int(q * len(ordered)), len(ordered) - 1)])


def setup_seconds(t_start: float, builds_started: float,
                  builds: list[float]) -> float:
    """``setup_s``: process start to the first build, plus the median build.

    The program is imported once per process, before the builds, so its
    import is counted once; building the workload's state is repeated
    and counted by its median.
    """
    return builds_started - t_start + median(builds)


def repeated_setup(build: Callable[[], T], t_start: float) -> tuple[T, float]:
    """Run ``build`` :data:`SETUP_REPEATS` times; the last build and setup_s.

    The garbage of each discarded build is collected before the next one,
    so the repetition, which users never pay, leaves no memory behind.
    """
    builds_started = time.perf_counter()
    builds: list[float] = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            del built
            gc.collect()
        began = time.perf_counter()
        built = build()
        builds.append(time.perf_counter() - began)
    return built, setup_seconds(t_start, builds_started, builds)


def layer_counters() -> dict[str, float]:
    """Cumulative stage, nn and synthesis counters of this process."""
    from repro.nn import nn_metrics
    from repro.radar import SYNTH_STATS
    from repro.radar.stages import stage_metrics

    empty = {"count": 0, "sum": 0.0}
    stages = stage_metrics().snapshot()["histograms"]
    nn = nn_metrics().snapshot()["histograms"]
    out: dict[str, float] = {}
    for stage in STAGES:
        hist = stages.get(f"stages.{stage}.wall_s", empty)
        out[f"radar.{stage}_s"] = float(hist["sum"])
        out[f"radar.{stage}.calls"] = int(hist["count"])
    out["radar.frames"] = SYNTH_STATS.frames_synthesized
    out["radar.components"] = SYNTH_STATS.components_seen
    out["radar.dropped_tones"] = SYNTH_STATS.dropped_tones
    for name, op in (("nn.lstm_fwd", "lstm_sequence"),
                     ("nn.lstm_bwd", "lstm_sequence_backward")):
        hist = nn.get(f"nn.{op}.wall_s", empty)
        out[f"{name}_s"] = float(hist["sum"])
        out[f"{name}.calls"] = int(hist["count"])
    for name, op in (("gan.d_step_s", "gan.discriminator_step"),
                     ("gan.g_step_s", "gan.generator_step")):
        out[name] = float(nn.get(f"nn.{op}.wall_s", empty)["sum"])
    return out


def counter_delta(before: dict[str, float],
                  after: dict[str, float]) -> dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def repeat_counts(values: dict[str, float]) -> dict[str, int]:
    """The exact-repeat counts; a layer the workload does not run has 0."""
    return {name: int(values.get(name, 0)) for name in REPEAT_COUNTS}


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in REPEAT_COUNTS


def summarize_ops(deltas: list[dict[str, float]]) -> dict[str, float]:
    """Per-op medians of the times; counts from the first op.

    Counts repeat exactly from op to op only where the program is
    deterministic, and the first op is the count window every run has.
    """
    return {name: (deltas[0][name] if is_count(name)
                   else median([delta[name] for delta in deltas]))
            for name in deltas[0]}


class NnProbes:
    """Timing wrapper on ``Adam.step`` and a shape probe on the LSTM scan.

    The LSTM work is computed, not measured: each layer of a
    ``forward_sequence`` call over a ``(T, B, D)`` input runs
    ``8·T·B·H·(D + H)`` forward GEMM flops; each backward layer call is
    counted at twice the mean forward layer call.
    """

    def __init__(self) -> None:
        self.optim_s = 0.0
        self.fwd_flops = 0.0
        self.fwd_layer_calls = 0

    def install(self) -> None:
        from repro.nn.optim import Adam
        from repro.nn.recurrent import LSTM

        step = Adam.step
        forward_sequence = LSTM.forward_sequence
        probes = self

        def timed_step(optimizer: Any) -> None:
            started = time.perf_counter()
            try:
                step(optimizer)
            finally:
                probes.optim_s += time.perf_counter() - started

        def counted_forward(lstm: Any, inputs: Any, *args: Any,
                            **kwargs: Any) -> Any:
            seq_len, batch = int(inputs.shape[0]), int(inputs.shape[1])
            for cell in lstm.cells:
                probes.fwd_flops += (8.0 * seq_len * batch * cell.hidden_size
                                     * (cell.input_size + cell.hidden_size))
                probes.fwd_layer_calls += 1
            return forward_sequence(lstm, inputs, *args, **kwargs)

        Adam.step = timed_step  # type: ignore[method-assign]
        LSTM.forward_sequence = counted_forward  # type: ignore[method-assign]

    def snapshot(self) -> dict[str, float]:
        return {"optim_s": self.optim_s, "fwd_flops": self.fwd_flops,
                "fwd_layer_calls": float(self.fwd_layer_calls)}


def lstm_gflop(fwd_flops: float, fwd_layer_calls: float,
               bwd_calls: float) -> float:
    """Computed forward plus backward LSTM GEMM work, in GFLOP."""
    if fwd_layer_calls <= 0:
        return 0.0
    per_call = fwd_flops / fwd_layer_calls
    return (fwd_flops + 2.0 * per_call * bwd_calls) / 1e9
