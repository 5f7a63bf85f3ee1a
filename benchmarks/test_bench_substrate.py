"""Throughput benches for the substrates (true timing benchmarks).

These are the performance-regression guards for the simulator and the
neural engine: frame synthesis, range-angle processing, full sensing
sessions, LSTM steps, and GAN training steps.
"""

import time

import numpy as np
import pytest

from repro.experiments.environments import office_environment
from repro.gan import GanConfig, GanTrainer
from repro.nn import LSTM, Tensor
from repro.radar import PathComponent, synthesize_packed
from repro.trajectories import HumanMotionSimulator
from repro.types import Trajectory
from tests.receive_oracle import (
    compute_range_angle_map,
    frame_range_profiles,
    noise_cube,
    pack_frames,
    synthesize_frame_naive,
)


@pytest.fixture(scope="module")
def office():
    return office_environment()


def sweep_components(num_components: int) -> list[PathComponent]:
    rng = np.random.default_rng(0)
    return [
        PathComponent(
            distance=float(rng.uniform(1.0, 12.0)),
            angle=float(rng.uniform(0.2, np.pi - 0.2)),
            amplitude=float(rng.uniform(0.01, 0.2)),
            beat_offset_hz=float(rng.uniform(-3e4, 3e4)),
            phase_offset=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        for _ in range(num_components)
    ]


def noisy_frame(components, config, array, rng):
    """One noisy frame through ``synthesize_packed``, ``(K, N)``."""
    return synthesize_packed(*pack_frames([components]), config, array,
                             out=noise_cube(config, rng, 1))[0]


@pytest.mark.benchmark(group="substrate-radar")
def test_bench_frame_synthesis(benchmark, office):
    radar = office.make_radar()
    rng = np.random.default_rng(0)
    components = [PathComponent(2.0 + i, 0.5 + 0.2 * i, 0.05)
                  for i in range(8)]
    frame = benchmark(noisy_frame, components, office.radar_config,
                      radar.array, rng)
    assert frame.shape == (7, office.radar_config.chirp.num_samples)


@pytest.mark.benchmark(group="substrate-radar")
def test_bench_sweep_synthesis_vectorized(benchmark, office):
    """The batched engine on a 50-component, 128-chirp sweep."""
    radar = office.make_radar()
    per_frame = [sweep_components(50)] * 128

    def sweep():
        return synthesize_packed(*pack_frames(per_frame),
                                 office.radar_config, radar.array)

    frames = benchmark(sweep)
    assert frames.shape == (128, 7, office.radar_config.chirp.num_samples)


@pytest.mark.benchmark(group="substrate-radar")
def test_bench_sweep_synthesis_speedup(office):
    """Batched vs the per-component oracle, 50 components x 128 chirps: >=5x.

    Measured directly (best of 3) rather than through pytest-benchmark so
    the ratio can be asserted as a regression guard.
    """
    radar = office.make_radar()
    config = office.radar_config
    components = sweep_components(50)
    per_frame = [components] * 128

    def naive_sweep():
        return [synthesize_frame_naive(c, config, radar.array, None)
                for c in per_frame]

    def vectorized_sweep():
        return synthesize_packed(*pack_frames(per_frame), config,
                                 radar.array)

    def best_of(fn, rounds=3):
        elapsed = []
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            elapsed.append(time.perf_counter() - started)
        return min(elapsed)

    vectorized_sweep()  # warm caches / BLAS threads before timing
    naive_s = best_of(naive_sweep)
    vectorized_s = best_of(vectorized_sweep)
    speedup = naive_s / vectorized_s
    print(f"\nsweep 50 components x 128 chirps: naive {naive_s * 1e3:.1f} ms, "
          f"vectorized {vectorized_s * 1e3:.1f} ms, speedup {speedup:.1f}x")

    reference = np.stack(naive_sweep())
    np.testing.assert_allclose(vectorized_sweep(), reference, atol=1e-10)
    assert speedup >= 5.0


@pytest.mark.benchmark(group="substrate-radar")
def test_bench_range_angle_processing(benchmark, office):
    radar = office.make_radar()
    rng = np.random.default_rng(0)
    components = [PathComponent(4.0, 1.2, 0.05)]
    frame = noisy_frame(components, office.radar_config, radar.array, rng)
    profiles = frame_range_profiles(frame, office.radar_config)

    profile_map = benchmark(compute_range_angle_map, profiles,
                            office.radar_config, radar.array, 0.0,
                            max_range=12.0)
    assert profile_map.power.shape[0] > 0


@pytest.mark.benchmark(group="substrate-radar")
def test_bench_full_sensing_second(benchmark, office):
    """One second of sensing (10 frames) of a 1-human scene."""
    walk = Trajectory(
        np.linspace(office.room.center, office.room.center + [1.0, 1.0], 20),
        dt=0.05,
    )

    def sense_one_second():
        scene = office.make_scene()
        scene.add_human(walk)
        return office.make_radar().sense(scene, 1.0,
                                         rng=np.random.default_rng(1))

    result = benchmark.pedantic(sense_one_second, rounds=3, iterations=1)
    assert len(result.profiles) == 10


@pytest.mark.benchmark(group="substrate-motion")
def test_bench_motion_simulation(benchmark):
    simulator = HumanMotionSimulator(rng=np.random.default_rng(0))
    trajectory = benchmark(simulator.sample_trajectory)
    assert len(trajectory) == 50


@pytest.mark.benchmark(group="substrate-nn")
def test_bench_lstm_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    lstm = LSTM(16, 32, rng, num_layers=2)
    inputs = Tensor(rng.standard_normal((49, 32, 16)))

    def step():
        outputs = lstm(inputs)
        loss = (outputs[-1] ** 2.0).sum()
        lstm.zero_grad()
        loss.backward()
        return loss

    loss = benchmark.pedantic(step, rounds=3, iterations=1)
    assert np.isfinite(loss.item())


@pytest.mark.benchmark(group="substrate-nn")
def test_bench_gan_training_step(benchmark):
    simulator = HumanMotionSimulator(rng=np.random.default_rng(0))
    dataset = simulator.build_dataset(64)
    config = GanConfig(noise_dim=8, hidden_size=16, feature_dim=8,
                       batch_size=32, epochs=1, dropout_probability=0.0)
    trainer = GanTrainer(dataset, config)

    history = benchmark.pedantic(trainer.train, kwargs={"epochs": 1},
                                 rounds=2, iterations=1)
    assert len(history.discriminator_losses) > 0
