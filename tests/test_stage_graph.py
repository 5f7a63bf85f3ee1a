"""Tests for the stage functions and their per-stage timer.

Every stage has one kernel, called directly; these tests pin the timer's
observation rule, per-stage instrumentation (direct sense and served
batches), that sense calls take no backend arguments, that the beat cube
is freed before BackgroundSubtract, and the production-vs-oracle receive
equivalence (pulsed sense, and ``process_sweep`` on a bare beat cube).
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.radar import (
    FmcwRadar,
    PulsedRadar,
    PulsedRadarConfig,
    RadarConfig,
    Scene,
    Stage,
    process_sweep,
    stage_metrics,
)
from repro.radar import stages
from repro.serve.engine import ExecutionItem, execute_batch
from repro.serve.request import BatchKey, SenseRequest
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory
from tests import receive_oracle as oracle

ATOL = 1e-10


@pytest.fixture(scope="module")
def config() -> RadarConfig:
    return RadarConfig(chirp=ChirpConfig(duration=6.4e-5))


@pytest.fixture(scope="module")
def scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    built = Scene(room)
    built.add_static((2.0, 3.0))
    walk = Trajectory(np.linspace([2.0, 2.0], [5.0, 4.0], 30), dt=0.1)
    built.add_human(walk)
    return built


def snapshot_counts() -> dict[str, int]:
    histograms = stage_metrics().snapshot()["histograms"]
    return {name: data["count"] for name, data in histograms.items()}


class TestExecutor:
    def test_timed_observes_completed_blocks_only(self):
        """A completed block is one observation, a raising block none."""
        name = "stages.beamform.wall_s"
        before = snapshot_counts().get(name, 0)
        with stages.timed(Stage.BEAMFORM):
            pass
        assert snapshot_counts()[name] == before + 1
        with pytest.raises(RuntimeError, match="kernel failed"):
            with stages.timed(Stage.BEAMFORM):
                raise RuntimeError("kernel failed")
        assert snapshot_counts()[name] == before + 1

    def test_sense_populates_every_stage_histogram(self, config, scene):
        radar = FmcwRadar(config)
        before = snapshot_counts()
        result = radar.sense(scene, 0.5, rng=np.random.default_rng(3))
        result.tracks()
        after = snapshot_counts()
        for stage in Stage:
            name = f"stages.{stage.value}.wall_s"
            assert after.get(name, 0) == before.get(name, 0) + 1, name
        # One Detect observation per call, fresh or resumed tracker.
        later = radar.sense(scene, 0.5, rng=np.random.default_rng(4),
                            start_time=0.5)
        detects = snapshot_counts()["stages.detect.wall_s"]
        later.stream_tracks(tracker=result.stream_tracks())
        later.tracks()
        assert snapshot_counts()["stages.detect.wall_s"] == detects + 3


class TestPerCallOverrides:
    """Sense calls take no backend arguments; the oracle is a test import."""

    def test_fmcw_unknown_backend_rejected(self, config, scene):
        radar = FmcwRadar(config)
        with pytest.raises(TypeError, match="synth"):
            radar.sense(scene, 0.5, synth="turbo")
        with pytest.raises(TypeError, match="pipeline"):
            PulsedRadar().sense(scene, 0.5, pipeline="naive")

    def test_pulsed_receive_backends_agree(self, scene):
        """Pulsed production receive matches the per-frame oracle.

        The pulsed radar runs the FMCW radar's BackgroundSubtract/Beamform
        kernels, so the same oracle pins both radar families.
        """
        radar = PulsedRadar(PulsedRadarConfig(sample_rate=2.0e9,
                                              max_range=10.0))
        naive = oracle.sense_pulsed(radar, scene, 0.6,
                                    rng=np.random.default_rng(5))
        vectorized = radar.sense(scene, 0.6, rng=np.random.default_rng(5))
        assert len(naive.profiles) == len(vectorized.profiles)
        for ref, fast in zip(naive.profiles, vectorized.profiles):
            np.testing.assert_allclose(fast.power, ref.power, atol=ATOL)
            np.testing.assert_allclose(fast.ranges, ref.ranges, atol=ATOL)

    def test_receive_plan_reusable_standalone(self, config):
        """The receive stages run on a bare beat cube, without a scene:
        ``process_sweep`` is the per-frame oracle's."""
        rng = np.random.default_rng(9)
        shape = (4, config.num_antennas, config.chirp.num_samples)
        frames = 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        times = np.arange(4) / config.frame_rate
        radar = FmcwRadar(config)
        sweep = process_sweep(frames, config, radar.array, times,
                              max_range=8.0)
        naive = oracle.process_sweep(radar, times, frames, 8.0)
        assert len(sweep.profiles) == len(naive.profiles) == 4
        for ref, fast in zip(naive.profiles, sweep.profiles):
            np.testing.assert_allclose(fast.power, ref.power, atol=ATOL)
            np.testing.assert_array_equal(fast.ranges, ref.ranges)


class TestBeatCubeLifetime:
    @pytest.mark.parametrize("noise_std", [0.0, 5e-4])
    def test_beat_cube_freed_before_background_subtract(
            self, monkeypatch, scene, noise_std):
        """Nothing holds the beat cube past the range FFT.

        With a noise floor, synthesis writes the tones into Emit's noise
        cube, so two names point to the one array.
        """
        cubes: list[weakref.ref] = []
        alive: list[bool] = []
        range_profiles = stages.batched_range_profiles
        subtract = stages.batched_background_subtract

        def spy_range_profiles(frames, config):
            cubes.append(weakref.ref(frames))
            return range_profiles(frames, config)

        def spy_subtract(profiles):
            alive.extend(ref() is not None for ref in cubes)
            return subtract(profiles)

        monkeypatch.setattr(stages, "batched_range_profiles",
                            spy_range_profiles)
        monkeypatch.setattr(stages, "batched_background_subtract",
                            spy_subtract)
        radar = FmcwRadar(RadarConfig(chirp=ChirpConfig(duration=6.4e-5),
                                      noise_std=noise_std))
        radar.sense(scene, 0.5, rng=np.random.default_rng(3))
        assert alive == [False]


class TestServeInstrumentation:
    def test_execute_batch_lands_in_stage_histograms(self, config, scene):
        requests = [SenseRequest(scene=scene, duration=0.4, seed=s)
                    for s in (0, 1)]
        key = BatchKey(config=config, max_range=10.0)
        items = [ExecutionItem(request_id=i, request=r, key=key)
                 for i, r in enumerate(requests)]
        before = snapshot_counts()
        outcomes = execute_batch(items)
        after = snapshot_counts()
        assert all(o.result is not None for o in outcomes)
        for stage in (Stage.EMIT, Stage.SYNTHESIZE, Stage.RANGE_FFT,
                      Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM):
            name = f"stages.{stage.value}.wall_s"
            assert after.get(name, 0) > before.get(name, 0), name
        # One stage run for the whole batch, not one per request.
        assert (after["stages.beamform.wall_s"]
                == before.get("stages.beamform.wall_s", 0) + 1)
