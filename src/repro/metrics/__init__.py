"""Evaluation metrics: FID, alignment errors, CDFs, and statistics."""

from repro.metrics.alignment import SpoofingErrors, aligned_trajectory, spoofing_errors
from repro.metrics.errors import empirical_cdf
from repro.metrics.fid import (
    fid_score,
    frechet_distance,
    normalized_fid_scores,
    trajectory_features,
)
from repro.metrics.stats import chi_square_independence, ks_two_sample

__all__ = [
    "SpoofingErrors",
    "aligned_trajectory",
    "chi_square_independence",
    "empirical_cdf",
    "fid_score",
    "frechet_distance",
    "ks_two_sample",
    "normalized_fid_scores",
    "spoofing_errors",
    "trajectory_features",
]
