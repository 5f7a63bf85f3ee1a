"""Golden equivalence suite: batched synthesis vs the per-component oracle.

The batched engine in `repro.radar.batch` is only trusted because these
tests pin it to the reference per-component loop
(``tests/receive_oracle.py``) at ``atol=1e-10`` across randomized
component sets, every ``PathComponent`` field, the empty frame, noise
streams, and the super-Nyquist drop rule. Components reach
``synthesize_packed`` — the kernel every sense path runs — through the
oracle's packer, one frame or a whole sweep at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.radar import (
    SYNTH_STATS,
    FmcwRadar,
    PathComponent,
    RadarConfig,
    Scene,
    UniformLinearArray,
    batched_range_profiles,
    emit_paths,
    stage_metrics,
    synthesize_packed,
)
from repro.geometry import Rectangle
from tests.receive_oracle import (
    noise_cube,
    pack_frames,
    sense,
    synthesize_frame_naive,
)

ATOL = 1e-10


@pytest.fixture(scope="module")
def config() -> RadarConfig:
    return RadarConfig()


@pytest.fixture(scope="module")
def array(config) -> UniformLinearArray:
    return UniformLinearArray(config)


def random_components(rng: np.random.Generator, count: int,
                      config: RadarConfig) -> list[PathComponent]:
    """Component sets exercising every PathComponent field."""
    components = []
    for _ in range(count):
        components.append(PathComponent(
            distance=float(rng.uniform(0.0, 14.0)),
            angle=float(rng.uniform(1e-3, np.pi - 1e-3)),
            amplitude=float(rng.uniform(0.0, 0.3)),
            beat_offset_hz=float(rng.uniform(-5e4, 5e4)),
            phase_offset=float(rng.uniform(0.0, 2.0 * np.pi)),
            extra_delay_s=float(rng.uniform(0.0, 3e-8)),
        ))
    return components


def synthesize_one(components: list[PathComponent], config: RadarConfig,
                   array: UniformLinearArray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """One frame through ``synthesize_packed``, ``(K, N)``."""
    return synthesize_packed(*pack_frames([components]), config, array,
                             out=out)[0]


class TestFrameEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count", [1, 3, 17, 50])
    def test_randomized_component_sets(self, config, array, seed, count):
        rng = np.random.default_rng(seed)
        components = random_components(rng, count, config)
        naive = synthesize_frame_naive(components, config, array, None)
        vectorized = synthesize_one(components, config, array)
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)

    def test_empty_component_list(self, config, array):
        naive = synthesize_frame_naive([], config, array, None)
        vectorized = synthesize_one([], config, array)
        assert naive.shape == vectorized.shape
        assert np.all(vectorized == 0)
        np.testing.assert_array_equal(vectorized, naive)

    def test_noise_streams_are_bit_identical(self, config, array):
        components = random_components(np.random.default_rng(1), 5, config)
        naive = synthesize_frame_naive(components, config, array,
                                       np.random.default_rng(99))
        vectorized = synthesize_one(
            components, config, array,
            out=noise_cube(config, np.random.default_rng(99), 1))
        # Tones agree to ATOL; the noise added on top is bit-identical
        # because both kernels draw through the same helper.
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)


class TestNyquistDropParity:
    """The oracle skips a super-Nyquist tone; production zeroes its
    amplitude and keeps it in the GEMM. Both must drop the same tones."""

    def super_nyquist_components(self, config) -> list[PathComponent]:
        chirp = config.chirp
        return [
            # Geometric distance beyond the unambiguous range.
            PathComponent(chirp.max_unambiguous_range + 3.0, 1.0, 0.1),
            # Beat offset pushes an in-range path over Nyquist.
            PathComponent(1.0, 1.2, 0.1,
                          beat_offset_hz=chirp.sample_rate),
            # Negative offset below -Nyquist.
            PathComponent(0.5, 0.8, 0.1,
                          beat_offset_hz=-chirp.sample_rate),
            # Exactly at Nyquist: the `>=` cut drops it in both kernels.
            PathComponent(0.0, 1.5, 0.1,
                          beat_offset_hz=chirp.sample_rate / 2.0),
            # Extra delay alone carries the tone out of band.
            PathComponent(0.0, 0.4, 0.1,
                          extra_delay_s=2.0 * chirp.max_unambiguous_range
                          / 3.0e8 * 1.5),
        ]

    def test_super_nyquist_tones_dropped_identically(self, config, array):
        components = self.super_nyquist_components(config)
        survivors = random_components(np.random.default_rng(2), 4, config)
        mixed = components + survivors
        naive = synthesize_frame_naive(mixed, config, array, None)
        vectorized = synthesize_one(mixed, config, array)
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)
        # The dropped tones contribute nothing at all.
        only_survivors = synthesize_frame_naive(survivors, config, array, None)
        np.testing.assert_allclose(vectorized, only_survivors, atol=ATOL)

    def test_dropped_tone_counts_match(self, config, array):
        components = self.super_nyquist_components(config)
        components += random_components(np.random.default_rng(3), 6, config)

        def counts() -> tuple[int, int, int]:
            return (SYNTH_STATS.dropped_tones, SYNTH_STATS.components_seen,
                    SYNTH_STATS.frames_synthesized)

        before = counts()
        synthesize_frame_naive(components, config, array, None)
        naive_dropped = counts()[0] - before[0]
        assert naive_dropped == 5

        before = counts()
        synthesize_one(components, config, array)
        dropped, seen, frames = (b - a for a, b in zip(before, counts()))
        assert dropped == naive_dropped
        assert seen == len(components)
        assert frames == 1

    def test_drop_emits_debug_log(self, config, array, caplog):
        far = PathComponent(config.chirp.max_unambiguous_range + 3.0, 1.0, 0.1)
        with caplog.at_level("DEBUG", logger="repro.radar.frontend"):
            synthesize_frame_naive([far], config, array, None)
            synthesize_one([far], config, array)
        drops = [r for r in caplog.records if "super-Nyquist" in r.message]
        assert len(drops) == 2
        assert all(r.levelname == "DEBUG" for r in drops)


class TestBackendDispatch:
    def test_default_backend_is_vectorized(self, config, array):
        """A sense run synthesizes with the batched engine, bit for bit."""
        room = Rectangle(0.0, 0.0, 8.0, 6.0)
        scene = Scene(room)
        scene.add_static((2.0, 3.0))
        radar = FmcwRadar(RadarConfig(noise_std=0.0))

        def runs() -> int:
            histograms = stage_metrics().snapshot()["histograms"]
            return histograms.get("stages.synthesize.wall_s",
                                  {"count": 0})["count"]

        before = runs()
        result = radar.sense(scene, 0.3)
        assert runs() == before + 1
        emission = emit_paths(scene.entities, scene.channel, radar.array,
                              [result.times], [np.random.default_rng(0)])[0]
        frames = synthesize_packed(emission.columns, emission.counts,
                                   radar.config, radar.array)
        np.testing.assert_array_equal(
            result.raw_profiles, batched_range_profiles(frames, radar.config))


class TestSweepEquivalence:
    def test_sweep_matches_per_frame_synthesis(self, config, array):
        rng = np.random.default_rng(11)
        per_frame = [random_components(rng, count, config)
                     for count in (4, 0, 12, 1, 27)]
        sweep = synthesize_packed(*pack_frames(per_frame), config, array)
        for frame, components in zip(sweep, per_frame):
            reference = synthesize_frame_naive(components, config, array, None)
            np.testing.assert_allclose(frame, reference, atol=ATOL)

    def test_sense_is_backend_independent(self):
        """A full sensing session matches the per-frame oracle session."""
        room = Rectangle(0.0, 0.0, 8.0, 6.0)
        scene = Scene(room)
        scene.add_static((2.0, 3.0))
        scene.add_static((5.0, 4.0), rcs=0.5)
        radar = FmcwRadar()
        naive = sense(radar, scene, 0.5, rng=np.random.default_rng(21))
        vectorized = radar.sense(scene, 0.5, rng=np.random.default_rng(21))
        np.testing.assert_allclose(vectorized.raw_profiles,
                                   naive.raw_profiles, atol=1e-8)
        for p_vec, p_naive in zip(vectorized.profiles, naive.profiles):
            np.testing.assert_allclose(p_vec.power, p_naive.power,
                                       rtol=1e-6, atol=1e-10)
