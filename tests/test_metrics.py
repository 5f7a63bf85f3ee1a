"""Tests for repro.metrics: FID, alignment errors, CDFs, statistics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gan import random_motion_baseline, uniform_linear_motion_baseline
from repro.metrics import (
    aligned_trajectory,
    chi_square_independence,
    empirical_cdf,
    fid_score,
    frechet_distance,
    ks_two_sample,
    normalized_fid_scores,
    spoofing_errors,
    trajectory_features,
)
from repro.trajectories import HumanMotionSimulator, TrajectoryDataset
from repro.types import Trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestTrajectoryFeatures:
    def test_feature_vector_size(self, sample_trajectory):
        features = trajectory_features(sample_trajectory)
        assert features.shape == (12,)
        assert np.all(np.isfinite(features))

    def test_translation_invariant(self, sample_trajectory):
        moved = sample_trajectory.translated([100.0, -50.0])
        assert trajectory_features(moved) == pytest.approx(
            trajectory_features(sample_trajectory)
        )

    def test_rotation_invariant(self, sample_trajectory):
        rotated = sample_trajectory.rotated(1.3)
        assert trajectory_features(rotated) == pytest.approx(
            trajectory_features(sample_trajectory), abs=1e-9
        )

    def test_straight_line_straightness_one(self):
        line = Trajectory(np.linspace([0, 0], [5, 0], 20), dt=0.5)
        features = trajectory_features(line)
        assert features[8] == pytest.approx(1.0)  # straightness index

    def test_rejects_too_short(self):
        with pytest.raises(ConfigurationError):
            trajectory_features(Trajectory([[0, 0], [1, 1]], dt=1.0))


class TestFrechetDistance:
    def test_identical_gaussians_zero(self):
        mean = np.array([1.0, 2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert frechet_distance(mean, cov, mean, cov) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_mean_shift_term(self):
        cov = np.eye(2)
        distance = frechet_distance(np.zeros(2), cov, np.array([3.0, 4.0]), cov)
        assert distance == pytest.approx(25.0, abs=1e-6)

    def test_symmetric(self, rng):
        mean_a, mean_b = rng.standard_normal(3), rng.standard_normal(3)
        a = rng.standard_normal((10, 3))
        b = rng.standard_normal((10, 3))
        cov_a, cov_b = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
        forward = frechet_distance(mean_a, cov_a, mean_b, cov_b)
        backward = frechet_distance(mean_b, cov_b, mean_a, cov_a)
        assert forward == pytest.approx(backward, rel=1e-6)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            frechet_distance(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


class TestFidScore:
    def _real(self, count=60, seed=0):
        simulator = HumanMotionSimulator(rng=np.random.default_rng(seed))
        return simulator.build_dataset(count)

    def test_self_fid_small(self, rng):
        real = self._real(80)
        half_a, half_b = real.split(0.5, rng)
        self_fid = fid_score(half_a, half_b)
        random_fid = fid_score(
            random_motion_baseline(40, rng, step_scale=0.3), half_b
        )
        assert self_fid < random_fid / 5

    def test_fig12_ordering_for_baselines(self, rng):
        """Random motion must look far worse than constant-speed lines."""
        real = self._real(80)
        ulm = uniform_linear_motion_baseline(40, rng)
        random = random_motion_baseline(40, rng, step_scale=real.step_scale())
        assert fid_score(ulm, real) < fid_score(random, real)

    def test_normalized_scores_real_is_one(self, rng):
        real = self._real(60)
        candidates = {"ULM": uniform_linear_motion_baseline(30, rng)}
        scores = normalized_fid_scores(candidates, real, rng)
        assert scores["Real"] == 1.0
        assert scores["ULM"] > 1.0

    def test_rejects_tiny_sets(self, rng):
        real = self._real(6)
        with pytest.raises(ConfigurationError):
            normalized_fid_scores({}, real, rng)


class TestAlignment:
    def test_aligned_trajectory_removes_rigid_motion(self, sample_trajectory):
        transformed = sample_trajectory.rotated(0.8).translated([3.0, -1.0])
        aligned, reference = aligned_trajectory(transformed,
                                                sample_trajectory)
        residual = np.linalg.norm(aligned.points - reference.points, axis=1)
        assert residual.max() == pytest.approx(0.0, abs=1e-9)

    def test_resamples_to_common_length(self, sample_trajectory):
        short = sample_trajectory.resampled(20)
        aligned, reference = aligned_trajectory(short, sample_trajectory)
        assert len(aligned) == len(reference) == 20

    def test_scale_error_not_absorbed(self, sample_trajectory):
        scaled = sample_trajectory.centered().scaled(1.5)
        aligned, reference = aligned_trajectory(
            scaled, sample_trajectory.centered()
        )
        residual = np.linalg.norm(aligned.points - reference.points, axis=1)
        assert residual.max() > 0.01


class TestSpoofingErrors:
    def test_perfect_spoof_zero_errors(self, sample_trajectory):
        radar = np.array([0.0, -3.0])
        errors = spoofing_errors(sample_trajectory, sample_trajectory, radar)
        assert errors.location_errors.max() == pytest.approx(0.0, abs=1e-9)
        assert errors.distance_errors.max() == pytest.approx(0.0, abs=1e-9)
        assert errors.angle_errors.max() == pytest.approx(0.0, abs=1e-9)

    def test_rigid_offset_forgiven(self, sample_trajectory):
        radar = np.array([0.0, -3.0])
        moved = sample_trajectory.rotated(0.4).translated([1.0, 2.0])
        errors = spoofing_errors(moved, sample_trajectory, radar)
        assert np.median(errors.location_errors) == pytest.approx(0.0,
                                                                  abs=1e-9)

    def test_noise_shows_up(self, sample_trajectory, rng):
        radar = np.array([0.0, -3.0])
        noisy = sample_trajectory.replace(
            points=sample_trajectory.points + rng.normal(0, 0.1, (50, 2))
        )
        errors = spoofing_errors(noisy, sample_trajectory, radar)
        medians = errors.medians()
        assert 0.01 < medians["location_m"] < 0.5
        assert medians["angle_deg"] > 0.0

    def test_rejects_bad_radar_position(self, sample_trajectory):
        with pytest.raises(ConfigurationError):
            spoofing_errors(sample_trajectory, sample_trajectory,
                            np.zeros(3))


class TestEmpiricalCdf:
    def test_levels_reach_one(self):
        values, levels = empirical_cdf(np.array([3.0, 1.0, 2.0]))
        assert values == pytest.approx([1.0, 2.0, 3.0])
        assert levels == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_median_readable_from_cdf(self, rng):
        sample = rng.normal(5.0, 1.0, 1001)
        values, levels = empirical_cdf(sample)
        median = values[np.searchsorted(levels, 0.5)]
        assert median == pytest.approx(np.median(sample), abs=0.02)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf(np.array([]))
        with pytest.raises(ConfigurationError):
            empirical_cdf(np.array([1.0, np.nan]))


class TestChiSquare:
    def test_independent_table_not_significant(self):
        # Perfectly proportional rows: chi2 = 0.
        table = np.array([[50, 50], [30, 30]])
        result = chi_square_independence(table)
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_dependent_table_significant(self):
        table = np.array([[90, 10], [10, 90]])
        result = chi_square_independence(table)
        assert result.significant()
        assert result.degrees_of_freedom == 1

    def test_matches_paper_scale(self):
        # Table 1 of the paper: chi2 ~ 0.2, p ~ 0.65.
        table = np.array([[93, 89], [67, 71]])
        result = chi_square_independence(table)
        assert result.statistic == pytest.approx(0.2, abs=0.05)
        assert result.p_value == pytest.approx(0.65, abs=0.05)

    def test_rejects_bad_tables(self):
        with pytest.raises(ConfigurationError):
            chi_square_independence(np.array([[1, 2]]))
        with pytest.raises(ConfigurationError):
            chi_square_independence(np.array([[1, -2], [3, 4]]))
        with pytest.raises(ConfigurationError):
            chi_square_independence(np.zeros((2, 2)))


    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 6, 9, 16])
    def test_survival_function_is_bitwise_scipy_chi2_sf(self, dof):
        """``chdtrc`` is what ``scipy.stats.chi2.sf`` evaluates."""
        import scipy.special
        import scipy.stats

        grid = np.concatenate([[0.0], np.logspace(-9, 3, 200),
                               np.linspace(0.0, 60.0, 241)])
        assert np.array_equal(scipy.special.chdtrc(dof, grid),
                              scipy.stats.chi2.sf(grid, dof))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 4), (5, 5)])
    def test_p_value_is_bitwise_scipy_chi2_sf(self, shape, rng):
        import scipy.stats

        proportional = np.outer(np.arange(1, shape[0] + 1),
                                np.arange(2, shape[1] + 2))
        tables = [proportional] + [rng.integers(1, 60, shape)
                                   for _ in range(20)]
        for table in tables:
            result = chi_square_independence(table)
            assert result.p_value == float(scipy.stats.chi2.sf(
                result.statistic, result.degrees_of_freedom))

    def test_cli_import_does_not_load_scipy_stats(self):
        completed = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
            ).rstrip(os.pathsep)},
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestKsTest:
    def test_same_distribution_high_p(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(0, 1, 500)
        assert ks_two_sample(a, b).p_value > 0.01

    def test_different_distributions_low_p(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(2, 1, 500)
        assert ks_two_sample(a, b).p_value < 1e-6

    def test_rejects_tiny_samples(self):
        with pytest.raises(ConfigurationError):
            ks_two_sample(np.array([1.0]), np.array([1.0, 2.0]))
