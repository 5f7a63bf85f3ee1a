"""Tests for the stage-graph executor and its plans.

Every plan binds exactly one kernel per stage; these tests pin the plan
inventory, custom-kernel bindings, per-stage instrumentation (direct sense
and served batches), that sense calls take no backend arguments, and the
pulsed production-vs-oracle receive equivalence that the shared Beamform
stage makes possible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.radar import (
    RECEIVE_PLAN,
    SENSE_PLAN,
    ExecutionContext,
    FmcwRadar,
    PulsedRadar,
    PulsedRadarConfig,
    RadarConfig,
    Scene,
    SenseInput,
    Stage,
    StageBinding,
    UniformLinearArray,
    execute,
    stage_metrics,
    sweep_results,
)
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


class TestRegistry:
    def test_backend_inventory(self):
        """One kernel per stage: the sense plan binds all but Detect."""
        assert [b.stage for b in SENSE_PLAN] == [
            Stage.EMIT, Stage.SYNTHESIZE, Stage.RANGE_FFT,
            Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM,
        ]
        assert all(callable(b.kernel) for b in SENSE_PLAN)


class TestExecutor:
    def test_explicit_kernel_binding_runs_and_is_timed(self, config):
        calls = []

        def custom(ctx: ExecutionContext) -> None:
            calls.append(ctx)
            ctx.workspace["marker"] = 42

        ctx = ExecutionContext(array=UniformLinearArray(config))
        before = snapshot_counts()
        execute((StageBinding(Stage.BEAMFORM, custom),), ctx)
        after = snapshot_counts()
        assert calls == [ctx]
        assert ctx.workspace["marker"] == 42
        assert (after["stages.beamform.wall_s"]
                == before.get("stages.beamform.wall_s", 0) + 1)

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
        """RECEIVE_PLAN processes a raw beat cube without a scene."""
        rng = np.random.default_rng(9)
        shape = (4, config.num_antennas, config.chirp.num_samples)
        frames = 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        results = {}
        for name, plan in (("naive", oracle.RECEIVE_PLAN),
                           ("vectorized", RECEIVE_PLAN)):
            ctx = ExecutionContext(
                array=UniformLinearArray(config), config=config,
                requests=[SenseInput(None, np.arange(4) / config.frame_rate,
                                     None)],
                max_range=8.0, min_range=config.min_range,
            )
            ctx.workspace["frames"] = frames
            results[name] = execute(plan, ctx)
        [sweep] = sweep_results(results["vectorized"])
        [naive] = sweep_results(results["naive"])
        for ref, fast in zip(naive.profiles, sweep.profiles):
            np.testing.assert_allclose(fast.power, ref.power, atol=ATOL)


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
        # One plan run for the whole batch, not one per request.
        assert (after["stages.beamform.wall_s"]
                == before.get("stages.beamform.wall_s", 0) + 1)

    def test_plan_constants_cover_the_chain(self):
        assert [b.stage for b in SENSE_PLAN] == [
            Stage.EMIT, Stage.SYNTHESIZE, Stage.RANGE_FFT,
            Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM,
        ]
        assert RECEIVE_PLAN == SENSE_PLAN[2:]
