"""Benchmarks for the fused LSTM sequence kernel and the dtype policy.

The paper-scale step is the two-layer H=512 scan the trajectory cGAN runs
per training batch (T=64, B=32 here; Sec. 6 of the paper). Three ratio
guards, all measured over interleaved rounds so a noisy CI neighbor
cannot bias one side:

- fused float64 must beat the naive per-step graph (the test oracle in
  ``tests/lstm_oracle.py``; measured ~2.2x on a 1-core container; both
  paths are GEMM-bound at H=512, so the ratio is set by batched-GEMM
  efficiency and graph overhead, not FLOP count),
- fused float32 must beat fused float64 (measured ~1.7x),
- fused float32 must beat naive float64 by 2x (measured ~3.8x) — the
  combined speedup a paper-scale training run actually gets from this PR.

Ratios are computed per round between back-to-back measurements and the
median across rounds is asserted — on a shared core whose speed drifts,
adjacent-in-time measurements see the same machine regime, which makes the
ratio far more stable than comparing two independent minimums.

The per-op wall-time snapshot (``repro.nn.metrics``) is dumped to
``nn-timings.json`` (override via ``RFPROTECT_NN_TIMINGS``) and uploaded
next to the stage/tracker timing artifacts.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

from repro.nn import LSTM, Tensor, dtype_scope, nn_metrics
from tests.lstm_oracle import naive_scan

TIMINGS_PATH = os.environ.get("RFPROTECT_NN_TIMINGS", "nn-timings.json")

SEQ_LEN, BATCH, IN_DIM, HIDDEN, LAYERS = 64, 32, 64, 512, 2
ROUNDS = 5


def paper_scale_case(dtype: str) -> tuple[LSTM, Tensor]:
    with dtype_scope(dtype):
        lstm = LSTM(IN_DIM, HIDDEN, np.random.default_rng(0),
                    num_layers=LAYERS)
        inputs = Tensor(
            np.random.default_rng(1).standard_normal((SEQ_LEN, BATCH, IN_DIM)),
            requires_grad=True,
        )
    return lstm, inputs


def one_step(lstm: LSTM, inputs: Tensor, backend: str) -> float:
    """Time one forward+backward over the paper-scale sequence."""
    lstm.zero_grad()
    inputs.zero_grad()
    started = time.perf_counter()
    with naive_scan() if backend == "naive" else contextlib.nullcontext():
        out = lstm.forward_sequence(inputs)
    out.mean().backward()
    return time.perf_counter() - started


def measure_all() -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-round timings for every (backend, dtype) combination.

    Returns min-of-rounds per case (for the artifact) plus the raw
    per-round series (for the ratio guards).
    """
    cases = {
        ("naive", "float64"): paper_scale_case("float64"),
        ("fused", "float64"): paper_scale_case("float64"),
        ("naive", "float32"): paper_scale_case("float32"),
        ("fused", "float32"): paper_scale_case("float32"),
    }
    series: dict[str, list[float]] = {f"{b}.{d}": [] for b, d in cases}
    for _ in range(ROUNDS):
        for (backend, dtype), (lstm, inputs) in cases.items():
            series[f"{backend}.{dtype}"].append(
                one_step(lstm, inputs, backend)
            )
    return {name: min(values) for name, values in series.items()}, series


_RESULTS: dict[str, float] = {}
_SERIES: dict[str, list[float]] = {}


def median_ratio(slow: str, fast: str) -> float:
    """Median of per-round ratios between two back-to-back measurements."""
    ratios = [s / f for s, f in zip(_SERIES[slow], _SERIES[fast])]
    return float(np.median(ratios))


def test_aa_measure_paper_scale_step():
    """Populate the shared measurement table (runs first by name)."""
    best, series = measure_all()
    _RESULTS.update(best)
    _SERIES.update(series)
    for name, value in sorted(_RESULTS.items()):
        print(f"\n{name}: {value:.3f}s")
    assert all(np.isfinite(v) for v in _RESULTS.values())


def test_fused_float64_beats_naive():
    ratio = median_ratio("naive.float64", "fused.float64")
    print(f"\nfused float64 speedup over naive: {ratio:.2f}x")
    assert ratio >= 1.3, (
        f"fused float64 only {ratio:.2f}x over naive per-step path"
    )


def test_float32_beats_float64_on_fused():
    ratio = median_ratio("fused.float64", "fused.float32")
    print(f"\nfused float32 speedup over float64: {ratio:.2f}x")
    assert ratio >= 1.2, (
        f"float32 fused only {ratio:.2f}x over float64 fused"
    )


def test_combined_training_path_speedup():
    """fused+float32 vs the pre-PR default (naive, float64)."""
    ratio = median_ratio("naive.float64", "fused.float32")
    print(f"\ncombined fused+float32 speedup: {ratio:.2f}x")
    assert ratio >= 1.8, (
        f"combined fused+float32 only {ratio:.2f}x over naive float64"
    )


def test_zz_dump_nn_timings():
    """Write the per-op metrics snapshot plus the step table (runs last)."""
    snapshot = nn_metrics().snapshot()
    histograms = snapshot["histograms"]
    assert histograms.get("nn.lstm_sequence.wall_s", {}).get("count", 0) > 0
    payload = {"paper_scale_step_s": dict(sorted(_RESULTS.items())),
               "metrics": snapshot}
    with open(TIMINGS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote nn timing snapshot to {TIMINGS_PATH}")
