"""Receive-pipeline throughput benches (true timing benchmarks).

Performance-regression guards for the batched receive engine
(`repro.radar.pipeline`): beat cube in, range-angle map stack out. The
headline guard pins the batched engine against the per-frame pipeline it
replaced — the loop that rebuilds the window taper, range axis, angle
grid, and steering matrix on every single frame — at >= 5x on a 256-frame,
7-antenna sweep. A second guard keeps the batched engine ahead of the
per-frame receive oracle (``tests/receive_oracle.py``, which memoizes its
steering planes, so the honest floor there is lower).

The sweep is deliberately short-chirp/short-range: per-frame overhead is
what the batched engine removes, and a compact sweep keeps the shared
FFT/GEMM arithmetic from drowning that signal on small CI hosts.
"""

import time

import numpy as np
import pytest

from repro.radar import FmcwRadar, RadarConfig, process_sweep
from repro.radar.processing import RangeAngleProfile
from repro.signal.chirp import ChirpConfig
from tests import receive_oracle

NUM_FRAMES = 256
MAX_RANGE = 2.0


@pytest.fixture(scope="module")
def sweep_setup():
    """A 256-frame, 7-antenna, 64-sample-chirp sweep with noise-like beats."""
    config = RadarConfig(chirp=ChirpConfig(duration=3.2e-5))
    radar = FmcwRadar(config)
    rng = np.random.default_rng(0)
    shape = (NUM_FRAMES, config.num_antennas, config.chirp.num_samples)
    frames = 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    times = np.arange(NUM_FRAMES) / config.frame_rate
    return config, radar, frames, times


def per_frame_reference_sweep(frames, config, array, times, max_range):
    """The pre-batching per-frame pipeline, planes rebuilt every frame.

    This reproduces, operation for operation, what the receive path did
    before the batched engine and the plane memos landed: per frame, a
    fresh Hann taper and windowed FFT, successive-frame subtraction, a
    fresh range axis / angle grid, and a fresh tapered steering matrix for
    Eq. 2. It is the baseline the >= 5x tentpole claim is measured against.
    """
    chirp = config.chirp
    profiles = []
    raw = []
    previous = None
    for t, frame in zip(times, frames):
        n = np.arange(chirp.num_samples)
        taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (chirp.num_samples - 1))
        n_fft = chirp.num_samples * 2
        current = np.fft.fft(frame * taper, n=n_fft, axis=-1)[..., : n_fft // 2]
        raw.append(current)
        subtracted = (np.zeros_like(current) if previous is None
                      else current - previous)
        previous = current
        beat = np.arange(n_fft // 2) * chirp.sample_rate / n_fft
        ranges = np.asarray(chirp.beat_frequency_to_distance(beat))
        keep = (ranges >= config.min_range) & (ranges <= max_range)
        angles = np.linspace(0.0, np.pi, config.angle_grid_points + 2)[1:-1]
        k = np.arange(array.num_antennas)
        phase = (2.0 * np.pi * np.outer(np.cos(angles), k)
                 * array.spacing / array.wavelength)
        steering = np.exp(-1j * phase)
        m = np.arange(array.num_antennas)
        window = 0.54 - 0.46 * np.cos(
            2.0 * np.pi * m / (array.num_antennas - 1))
        steering = steering * (window / window.sum() * array.num_antennas)
        power = np.abs(steering @ subtracted[:, keep]) ** 2
        profiles.append(RangeAngleProfile(power=power.T, ranges=ranges[keep],
                                          angles=angles, time=float(t)))
    return profiles, np.stack(raw)


def best_of(fn, rounds=5):
    elapsed = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - started)
    return min(elapsed)


def paired_ratio(slow, fast, rounds=6):
    """Median over rounds of ``slow``'s wall time over ``fast``'s.

    Each round times both arms back to back, alternating which goes
    first, so a round's ratio sees one speed of the host whichever phase
    it is in; the median drops a round that a neighbour disturbed.
    Returns the ratio and each arm's median time.
    """
    timings = {slow: [], fast: []}
    for round_ in range(rounds):
        for fn in ((slow, fast) if round_ % 2 == 0 else (fast, slow)):
            started = time.perf_counter()
            fn()
            timings[fn].append(time.perf_counter() - started)
    ratios = [s / f for s, f in zip(timings[slow], timings[fast])]
    return (float(np.median(ratios)), float(np.median(timings[slow])),
            float(np.median(timings[fast])))


@pytest.mark.benchmark(group="substrate-pipeline")
def test_bench_sweep_processing_vectorized(benchmark, sweep_setup):
    """The batched engine on the full 256-frame sweep."""
    config, radar, frames, times = sweep_setup
    sweep = benchmark(process_sweep, frames, config, radar.array, times,
                      max_range=MAX_RANGE)
    assert sweep.power_cube.shape[0] == NUM_FRAMES


@pytest.mark.benchmark(group="substrate-pipeline")
def test_bench_sweep_processing_speedup(sweep_setup):
    """Batched engine vs the pre-batching per-frame pipeline: >= 5x.

    Measured directly (the median of per-round ratios, both arms timed in
    each round) rather than through pytest-benchmark so the ratio can be
    asserted as a regression guard.
    """
    config, radar, frames, times = sweep_setup

    def reference_sweep():
        return per_frame_reference_sweep(frames, config, radar.array, times,
                                         MAX_RANGE)

    def batched_sweep():
        return process_sweep(frames, config, radar.array, times,
                             max_range=MAX_RANGE)

    batched_sweep()  # warm the plane memos / BLAS threads before timing
    speedup, reference_s, batched_s = paired_ratio(reference_sweep,
                                                   batched_sweep)
    print(f"\nsweep {NUM_FRAMES} frames x {config.num_antennas} antennas: "
          f"per-frame {reference_s * 1e3:.1f} ms, "
          f"batched {batched_s * 1e3:.1f} ms (medians), "
          f"median paired speedup {speedup:.1f}x")

    ref_profiles, ref_raw = reference_sweep()
    sweep = batched_sweep()
    np.testing.assert_allclose(sweep.raw_profiles, ref_raw, atol=1e-10)
    for ours, reference in zip(sweep.profiles, ref_profiles):
        np.testing.assert_allclose(ours.power, reference.power, atol=1e-10)
    assert speedup >= 5.0


@pytest.mark.benchmark(group="substrate-pipeline")
def test_bench_sweep_processing_vs_naive_backend(sweep_setup):
    """Batched engine vs the (memoized) per-frame receive oracle: >= 1.5x.

    The oracle memoizes its steering planes, so its per-frame cost is
    already far below the pre-batching loop; this guard only pins that the
    batched engine keeps paying for itself over the per-frame bodies.
    """
    config, radar, frames, times = sweep_setup

    def naive_sweep():
        return receive_oracle.process_sweep(radar, times, frames, MAX_RANGE)

    def batched_sweep():
        return process_sweep(frames, config, radar.array, times,
                             max_range=MAX_RANGE)

    batched_sweep()
    naive_sweep()
    naive_s = best_of(naive_sweep)
    batched_s = best_of(batched_sweep)
    speedup = naive_s / batched_s
    print(f"\nnaive backend {naive_s * 1e3:.1f} ms, "
          f"batched {batched_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.5
