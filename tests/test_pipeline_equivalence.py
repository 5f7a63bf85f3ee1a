"""Golden equivalence suite: batched vs per-frame receive processing.

The batched engine in `repro.radar.pipeline` is only trusted because these
tests pin every stage — cube FFT, shifted-difference background
subtraction, lag-domain Eq. 2 beamforming — and the full ``sense`` paths
(FMCW and pulsed) to the per-frame reference oracle
(``tests/receive_oracle.py``) at ``atol=1e-10``, with and without noise,
plus the read-only invariants of the shared sweep planes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SignalProcessingError
from repro.geometry import Rectangle
from repro.radar import (
    ZERO_PAD_FACTOR,
    FmcwRadar,
    PulsedRadar,
    RadarConfig,
    Scene,
    SenseInput,
    UniformLinearArray,
    batched_background_subtract,
    batched_lag_vectors,
    batched_range_profiles,
    beamform_from_lags_stacked,
    process_sweep,
    stage_metrics,
    synthesize_packed,
)
from repro.radar.stages import emit_requests
from repro.radar import pipeline as pipeline_module
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory
from tests import receive_oracle as oracle

ATOL = 1e-10


@pytest.fixture(scope="module")
def config() -> RadarConfig:
    # Short chirps keep the FFTs small; the kernels are shape-generic.
    return RadarConfig(chirp=ChirpConfig(duration=6.4e-5))


@pytest.fixture(scope="module")
def array(config) -> UniformLinearArray:
    return UniformLinearArray(config)


def random_cube(seed: int, num_frames: int, config: RadarConfig,
                scale: float = 0.05) -> np.ndarray:
    """A beat cube with realistic (small) amplitudes."""
    rng = np.random.default_rng(seed)
    shape = (num_frames, config.num_antennas, config.chirp.num_samples)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def walking_scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    scene = Scene(room)
    scene.add_static((2.0, 3.0))
    scene.add_static((6.0, 4.5), rcs=0.5)
    walk = Trajectory(np.linspace([2.0, 2.0], [5.5, 4.0], 40), dt=0.1)
    scene.add_human(walk)
    return scene


class TestStageEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_cube_fft_matches_per_frame(self, config, seed):
        cube = random_cube(seed, 9, config)
        batched = batched_range_profiles(cube, config)
        for frame, profile in zip(cube, batched):
            np.testing.assert_allclose(
                profile, oracle.frame_range_profiles(frame, config),
                atol=ATOL)

    def test_blocked_fft_matches_single_pass(self, config, monkeypatch):
        cube = random_cube(11, 17, config)
        whole = batched_range_profiles(cube, config)
        # Shrink the block budget so the cube is split across many blocks.
        monkeypatch.setattr(pipeline_module, "_CHUNK_BYTES", 1 << 14)
        blocked = batched_range_profiles(cube, config)
        np.testing.assert_array_equal(blocked, whole)

    def test_shifted_difference_matches_chain(self, config):
        profiles = batched_range_profiles(random_cube(2, 7, config), config)
        batched = batched_background_subtract(profiles)
        previous = None
        for frame, subtracted in zip(profiles, batched):
            reference = oracle.background_subtract(frame, previous)
            previous = frame
            np.testing.assert_allclose(subtracted, reference, atol=ATOL)

    @pytest.mark.parametrize("taper", ["hamming", "hann", None])
    def test_lag_domain_beamform_matches_eq2(self, config, array, taper):
        profiles = batched_range_profiles(random_cube(3, 6, config), config)
        subtracted = batched_background_subtract(profiles)
        angles = config.angle_grid()
        lags = batched_lag_vectors(subtracted, array, taper=taper)
        power_cube = beamform_from_lags_stacked(lags[None], array,
                                                angles)[0].reshape(
            6, profiles.shape[-1], angles.size)
        assert power_cube.shape == (6, profiles.shape[-1], angles.size)
        for frame, power in zip(subtracted, power_cube):
            reference = oracle.beamform(array, frame, angles, taper=taper)
            np.testing.assert_allclose(power, reference.T, atol=ATOL)

    def test_process_sweep_matches_naive_backend(self, config):
        radar = FmcwRadar(config)
        cube = random_cube(5, 8, config)
        times = np.arange(8) / config.frame_rate
        naive = oracle.process_sweep(radar, times, cube, 6.0)
        sweep = process_sweep(cube, config, radar.array, times, max_range=6.0)
        np.testing.assert_allclose(sweep.raw_profiles, naive.raw_profiles,
                                   atol=ATOL)
        for ours, reference in zip(sweep.profiles, naive.profiles):
            np.testing.assert_allclose(ours.power, reference.power, atol=ATOL)
            np.testing.assert_array_equal(ours.ranges, reference.ranges)
            np.testing.assert_array_equal(ours.angles, reference.angles)
            assert ours.time == reference.time


class TestStageValidation:
    def test_fft_rejects_non_cube(self, config):
        with pytest.raises(SignalProcessingError, match="beat cube"):
            batched_range_profiles(
                np.zeros((config.num_antennas, config.chirp.num_samples),
                         dtype=complex), config)

    def test_fft_rejects_wrong_antenna_count(self, config):
        with pytest.raises(SignalProcessingError, match="beat cube"):
            batched_range_profiles(
                np.zeros((4, config.num_antennas + 1,
                          config.chirp.num_samples), dtype=complex), config)

    def test_subtract_rejects_empty_cube(self):
        with pytest.raises(SignalProcessingError, match="frame axis"):
            batched_background_subtract(np.zeros((0, 3, 5), dtype=complex))

    def test_beamform_rejects_wrong_antenna_count(self, config, array):
        with pytest.raises(SignalProcessingError, match="profile cube"):
            batched_lag_vectors(np.zeros((3, 2, 5), dtype=complex), array)

    def test_process_sweep_rejects_time_mismatch(self, config, array):
        cube = random_cube(6, 4, config)
        with pytest.raises(SignalProcessingError, match="frame times"):
            process_sweep(cube, config, array, np.arange(5, dtype=float))


class TestSenseEquivalence:
    @pytest.mark.parametrize("noise_std", [0.0, 5e-4])
    def test_fmcw_sense_is_backend_independent(self, noise_std):
        radar = FmcwRadar(RadarConfig(noise_std=noise_std))
        naive = oracle.sense(radar, walking_scene(), 1.2,
                             rng=np.random.default_rng(17))
        vectorized = radar.sense(walking_scene(), 1.2,
                                 rng=np.random.default_rng(17))
        np.testing.assert_allclose(vectorized.raw_profiles,
                                   naive.raw_profiles, atol=ATOL)
        assert len(vectorized.profiles) == len(naive.profiles)
        for p_vec, p_naive in zip(vectorized.profiles, naive.profiles):
            np.testing.assert_allclose(p_vec.power, p_naive.power, atol=ATOL)
            np.testing.assert_array_equal(p_vec.ranges, p_naive.ranges)
            np.testing.assert_array_equal(p_vec.angles, p_naive.angles)
            assert p_vec.time == p_naive.time

    def test_pulsed_sense_is_backend_independent(self):
        naive = oracle.sense_pulsed(PulsedRadar(), walking_scene(), 1.0,
                                    rng=np.random.default_rng(23))
        vectorized = PulsedRadar().sense(walking_scene(), 1.0,
                                         rng=np.random.default_rng(23))
        for p_vec, p_naive in zip(vectorized.profiles, naive.profiles):
            np.testing.assert_allclose(p_vec.power, p_naive.power, atol=ATOL)
            np.testing.assert_array_equal(p_vec.ranges, p_naive.ranges)
            assert p_vec.time == p_naive.time


class TestProcessSweepIsSense:
    def test_synthesized_cube_gives_the_sensed_result(self):
        """``process_sweep`` on the beat cube Emit and Synthesize make
        (same seed, same crop) is ``sense``: the power cube and raw profiles
        bit for bit, and the same tracks."""
        radar = FmcwRadar()
        scene = walking_scene()
        times = radar.frame_times(3.0)
        max_range = radar.default_max_range(scene)
        emission, noise = emit_requests(
            [SenseInput(scene, times, np.random.default_rng(31))],
            radar.config, radar.array)
        frames = synthesize_packed(emission.columns, emission.counts,
                                   radar.config, radar.array, out=noise)
        sweep = process_sweep(frames, radar.config, radar.array, times,
                              max_range=max_range)
        sensed = radar.sense(scene, 3.0, rng=np.random.default_rng(31))
        assert sweep.power_cube.tobytes() == sensed.power_cube.tobytes()
        assert sweep.raw_profiles.tobytes() == sensed.raw_profiles.tobytes()
        tracks = sensed.tracks()
        assert tracks
        assert ([(t.track_id, t.times) for t in sweep.tracks()]
                == [(t.track_id, t.times) for t in tracks])


class TestSensingResultInvariants:
    @pytest.fixture(scope="class")
    def both_results(self):
        # Class-scoped so the (expensive) sensing runs happen once.
        return {
            "naive": oracle.sense(FmcwRadar(), walking_scene(), 3.0,
                                  rng=np.random.default_rng(29)),
            "vectorized": FmcwRadar().sense(walking_scene(), 3.0,
                                            rng=np.random.default_rng(29)),
        }

    def test_phase_series_identical(self, both_results):
        naive = both_results["naive"].phase_series(3.0)
        vectorized = both_results["vectorized"].phase_series(3.0)
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)

    def test_tracks_identical(self, both_results):
        naive_tracks = both_results["naive"].tracks()
        vec_tracks = both_results["vectorized"].tracks()
        assert len(vec_tracks) == len(naive_tracks)
        for ours, reference in zip(vec_tracks, naive_tracks):
            np.testing.assert_allclose(ours.to_trajectory().points,
                                       reference.to_trajectory().points,
                                       atol=1e-8)

    def test_best_trajectory_identical(self, both_results):
        naive = both_results["naive"].best_trajectory()
        vectorized = both_results["vectorized"].best_trajectory()
        np.testing.assert_allclose(vectorized.points, naive.points,
                                   atol=1e-8)

    def test_vectorized_profiles_share_readonly_planes(self, both_results):
        profiles = both_results["vectorized"].profiles
        assert profiles[0].ranges is profiles[1].ranges
        assert profiles[0].angles is profiles[1].angles
        for plane in (profiles[0].power, profiles[0].ranges,
                      profiles[0].angles):
            assert not plane.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                plane[...] = 0.0

    def test_range_bins_match_raw_profile_grid(self, both_results):
        for result in both_results.values():
            bins = result.range_bins
            assert bins.shape[0] == result.raw_profiles.shape[-1]
            assert (bins.shape[0]
                    == result.config.chirp.num_samples * ZERO_PAD_FACTOR // 2)


class TestZeroPadSingleSource:
    def test_pipeline_grid_uses_the_constant(self, config):
        cube = random_cube(7, 3, config)
        profiles = batched_range_profiles(cube, config)
        assert (profiles.shape[-1]
                == config.chirp.num_samples * ZERO_PAD_FACTOR // 2)


class TestBackendDispatch:
    def test_default_backend_is_vectorized(self, config):
        """A sense run executes every receive stage of the plan once."""
        histograms = [f"stages.{stage}.wall_s" for stage in (
            "range_fft", "background_subtract", "beamform")]

        def runs() -> list[int]:
            snapshot = stage_metrics().snapshot()["histograms"]
            return [snapshot.get(name, {"count": 0})["count"]
                    for name in histograms]

        before = runs()
        FmcwRadar(config).sense(walking_scene(), 0.3)
        assert runs() == [count + 1 for count in before]
