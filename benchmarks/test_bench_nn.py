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

The naive rounds must run no fused scan: a broken oracle seam would let
them take the fused stack and leave the golden digests green.

The step table is dumped to ``nn-timings.json``, with the process
registry's ``nn.<op>.wall_s`` histograms, and uploaded next to the
stage/tracker timing artifacts. It also records the float32 step with the
two layers' wavefront (:mod:`repro.nn.overlap`) forced on and off, BLAS on
one thread; no ratio guard reads those two, because a wall-time ratio
between threaded runs follows the host's load. Its metrics carry the
gauge ``bench.lstm_scan_peak_mb``: the tracemalloc peak, in MB, of one
paper-scale discriminator direction's scan (one layer, B=96), forward
plus BPTT. No guard reads it either.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections.abc import Iterator
from unittest import mock

import numpy as np

from benchmarks.conftest import write_timings
from repro.nn import LSTM, Tensor, dtype_scope, nn_metrics, overlap
from tests.lstm_oracle import naive_scan

SEQ_LEN, BATCH, IN_DIM, HIDDEN, LAYERS = 64, 32, 64, 512, 2
ROUNDS = 5
#: A discriminator step's scan: 49 steps of a 50-point trace, and the real,
#: fake and mislabelled-real batches of 32 in one pass.
D_SEQ_LEN, D_BATCH = 49, 96


def fused_scans() -> int:
    """Layer scans the fused op has recorded in this process."""
    histograms = nn_metrics().snapshot()["histograms"]
    return int(histograms.get("nn.lstm_sequence.wall_s", {}).get("count", 0))


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
    scans = fused_scans()
    started = time.perf_counter()
    with naive_scan() if backend == "naive" else contextlib.nullcontext():
        out = lstm.forward_sequence(inputs)
    out.mean().backward()
    elapsed = time.perf_counter() - started
    if backend == "naive":
        _NAIVE_FUSED_SCANS.append(fused_scans() - scans)
    return elapsed


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """BLAS on one thread, as the overlap guard wants; restored after."""
    previous = overlap.blas_threads()
    overlap.set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            overlap.set_blas_threads(previous)


def wavefront_step(lstm: LSTM, inputs: Tensor, on: bool) -> float:
    """One fused step with the stack's wavefront forced on or off."""
    with mock.patch.object(overlap, "usable_cpus", lambda: 2 if on else 1):
        return one_step(lstm, inputs, "fused")


def measure_wavefront() -> dict[str, float]:
    """Min of interleaved float32 rounds, wavefront on and off."""
    lstm, inputs = paper_scale_case("float32")
    series: dict[str, list[float]] = {"wavefront.float32": [],
                                      "inline.float32": []}
    with one_blas_thread():
        for _ in range(ROUNDS):
            series["wavefront.float32"].append(
                wavefront_step(lstm, inputs, True))
            series["inline.float32"].append(
                wavefront_step(lstm, inputs, False))
    return {name: min(values) for name, values in series.items()}


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


def scan_peak_mb() -> float:
    """tracemalloc peak, MB, of one float32 B=96 scan's forward + BPTT."""
    with dtype_scope("float32"):
        lstm = LSTM(IN_DIM, HIDDEN, np.random.default_rng(2))
        inputs = Tensor(np.random.default_rng(3).standard_normal(
            (D_SEQ_LEN, D_BATCH, IN_DIM)), requires_grad=True)
    tracemalloc.start()
    try:
        started = tracemalloc.get_traced_memory()[0]
        lstm.forward_sequence(inputs).mean().backward()
        return (tracemalloc.get_traced_memory()[1] - started) / 2**20
    finally:
        tracemalloc.stop()


_RESULTS: dict[str, float] = {}
_SERIES: dict[str, list[float]] = {}
_NAIVE_FUSED_SCANS: list[int] = []


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


def test_naive_rounds_run_no_fused_scan():
    assert len(_NAIVE_FUSED_SCANS) == 2 * ROUNDS
    assert _NAIVE_FUSED_SCANS == [0] * len(_NAIVE_FUSED_SCANS)


def test_ab_measure_wavefront():
    """The paper-scale float32 step, wavefront on and off."""
    wavefront = measure_wavefront()
    _RESULTS.update(wavefront)
    for name, value in sorted(wavefront.items()):
        print(f"\n{name}: {value:.3f}s")
    assert all(np.isfinite(v) for v in wavefront.values())


def test_ac_measure_scan_memory():
    """The paper-scale B=96 scan's peak, recorded as a gauge."""
    peak = scan_peak_mb()
    print(f"\nB={D_BATCH} one-layer scan, forward + BPTT: peak {peak:.1f} MB")
    nn_metrics().set_gauge("bench.lstm_scan_peak_mb", peak)
    assert peak > 0


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
    """Write the step table (runs last)."""
    histograms = nn_metrics().snapshot()["histograms"]
    assert histograms.get("nn.lstm_sequence.wall_s", {}).get("count", 0) > 0
    write_timings("nn-timings.json", _RESULTS)
