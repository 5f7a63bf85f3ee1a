"""Fréchet distance between trajectory distributions (Fig. 12).

The paper evaluates its cGAN with the Fréchet Inception Distance. Image FID
embeds samples with an Inception network; trajectories have no canonical
pretrained embedding, so this implementation uses a fixed *kinematic
feature* embedding — step-length, turning, straightness, and velocity
autocorrelation statistics that capture exactly the "walks like a human"
properties the discriminator judges. The Fréchet (2-Wasserstein between
Gaussian fits) computation on top is the standard one.

Scores are reported *normalized* exactly as in the paper: divided by the
FID between two disjoint halves of the real dataset, so "Real" scores 1.0
by construction.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
import scipy.linalg

from repro.errors import ConfigurationError
from repro.trajectories.dataset import TrajectoryDataset
from repro.types import Trajectory, memoized_rows, motion_ranges

__all__ = ["feature_matrix", "fid_score", "frechet_distance",
           "normalized_fid_scores", "trajectory_features"]

NUM_FEATURES = 12


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(n, L)`` arrays.

    Stacked ``(n, 1, L) @ (n, L, 1)`` matmuls run the BLAS dot that 1-D
    ``a @ b`` and ``np.linalg.norm`` run, so each row is bit-identical.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _feature_kernel(group: list[Trajectory]) -> np.ndarray:
    """Feature rows of equally long, equally sampled trajectories."""
    points = np.stack([t.points for t in group])
    if points.shape[1] < 5:
        raise ConfigurationError("feature extraction needs >= 5 points")
    count = points.shape[0]
    steps = np.diff(points, axis=1)
    lengths = np.linalg.norm(steps, axis=-1)
    speeds = lengths / group[0].dt
    headings = np.arctan2(steps[..., 1], steps[..., 0])
    turning = (np.diff(headings, axis=-1) + np.pi) % (2.0 * np.pi) - np.pi
    path = lengths.sum(axis=-1)
    net_step = points[:, -1] - points[:, 0]
    net = np.sqrt(_row_dots(net_step, net_step))
    moved = path > 1e-9
    straightness = np.where(moved, net / np.where(moved, path, 1.0), 0.0)

    def step_autocorrelation(lag: int) -> np.ndarray:
        a = steps[:, :-lag].reshape(count, -1)
        b = steps[:, lag:].reshape(count, -1)
        denom = np.sqrt(_row_dots(a, a)) * np.sqrt(_row_dots(b, b))
        live = denom >= 1e-12
        return np.where(live, _row_dots(a, b) / np.where(live, denom, 1.0),
                        0.0)

    return np.stack([
        lengths.mean(axis=-1),
        lengths.std(axis=-1),
        lengths.max(axis=-1),
        speeds.std(axis=-1),
        np.abs(turning).mean(axis=-1),
        turning.std(axis=-1),
        motion_ranges(group),
        path,
        straightness,
        step_autocorrelation(1),
        step_autocorrelation(3),
        (lengths < 0.02).mean(axis=-1),
    ], axis=-1)


def feature_matrix(trajectories: Iterable[Trajectory]) -> np.ndarray:
    """The ``(n, 12)`` kinematic embedding of a trajectory set.

    Features per row: step-length mean/std/max, speed std, turning-angle
    mean-absolute/std, motion range, path length, straightness (net
    displacement over path length), step autocorrelations at lags 1 and
    3, and the fraction of near-stationary steps.

    Each row is computed once per trajectory and memoized on it; the rows
    still missing are computed in one stacked pass per ``(T, dt)`` group.
    Raises :class:`ConfigurationError` for a trajectory of fewer than 5
    points.
    """
    members = list(trajectories)
    if not members:
        return np.empty((0, NUM_FEATURES))
    return memoized_rows(members, "features", _feature_kernel)


def trajectory_features(trajectory: Trajectory) -> np.ndarray:
    """A 12-dim kinematic embedding of one trajectory (see :func:`feature_matrix`)."""
    return feature_matrix([trajectory])[0]


def frechet_distance(mean_a: np.ndarray, cov_a: np.ndarray,
                     mean_b: np.ndarray, cov_b: np.ndarray) -> float:
    """Fréchet distance between two Gaussians.

    ``||mu_a - mu_b||^2 + Tr(C_a + C_b - 2 (C_a C_b)^{1/2})`` with a small
    diagonal regularizer for numerical stability (standard FID practice).
    """
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=float))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=float))
    if mean_a.shape != mean_b.shape or cov_a.shape != cov_b.shape:
        raise ConfigurationError("Gaussian parameter shapes must match")

    epsilon = 1e-8 * np.eye(cov_a.shape[0])
    covmean = scipy.linalg.sqrtm((cov_a + epsilon) @ (cov_b + epsilon))
    if np.iscomplexobj(covmean):
        covmean = covmean.real
    diff = mean_a - mean_b
    value = float(diff @ diff + np.trace(cov_a + cov_b - 2.0 * covmean))
    return max(value, 0.0)


def fid_score(candidate: TrajectoryDataset,
              reference: TrajectoryDataset) -> float:
    """FID between a candidate trajectory set and a reference set."""
    return _feature_fid(candidate, feature_matrix(reference))


def _feature_fid(candidate: TrajectoryDataset,
                 features_b: np.ndarray) -> float:
    """FID of ``candidate`` against a reference set's feature matrix."""
    if len(candidate) < 2 or features_b.shape[0] < 2:
        raise ConfigurationError("FID needs at least 2 trajectories per set")
    features_a = feature_matrix(candidate)
    # Normalize by the reference feature scales so no single unit dominates.
    scale = features_b.std(axis=0) + 1e-6
    features_a = features_a / scale
    features_b = features_b / scale
    return frechet_distance(
        features_a.mean(axis=0), np.cov(features_a, rowvar=False),
        features_b.mean(axis=0), np.cov(features_b, rowvar=False),
    )


def normalized_fid_scores(candidates: dict[str, TrajectoryDataset],
                          real: TrajectoryDataset,
                          rng: np.random.Generator) -> dict[str, float]:
    """Fig. 12 scores: each candidate's FID over the real-vs-real FID.

    ``real`` is split in half; one half is the scoring reference, and the
    FID between the halves is the normalizer, so a hypothetical perfect
    generator scores ~1.0 and the entry ``"Real"`` is exactly 1.0.
    """
    if len(real) < 8:
        raise ConfigurationError("need >= 8 real trajectories to normalize FID")
    half_a, half_b = real.split(0.5, rng)
    reference = feature_matrix(half_b)
    baseline = _feature_fid(half_a, reference)
    if baseline <= 0:
        raise ConfigurationError(
            "degenerate real split: zero self-FID (identical halves?)"
        )
    scores = {"Real": 1.0}
    for name, dataset in candidates.items():
        scores[name] = _feature_fid(dataset, reference) / baseline
    return scores
