"""The "smart eavesdropper": a learned real-vs-fake trajectory classifier.

Sec. 6 argues that as long as the spoofed distribution differs from the
human distribution, "there exists a classifier which can identify real vs
fake trajectories with high probability". This module builds that
classifier — logistic regression over the same kinematic features the FID
uses — so the claim is testable: it should beat naive baselines (circles,
random walks) easily and hover near chance against the cGAN.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.fid import feature_matrix
from repro.trajectories.dataset import TrajectoryDataset
from repro.types import Trajectory

__all__ = ["TrajectoryRealnessClassifier"]


class TrajectoryRealnessClassifier:
    """Logistic regression on kinematic features: real (1) vs fake (0)."""

    def __init__(self, *, learning_rate: float = 0.1, epochs: int = 300,
                 l2_penalty: float = 1e-3, seed: int = 0) -> None:
        if learning_rate <= 0 or epochs < 1 or l2_penalty < 0:
            raise ConfigurationError("invalid classifier hyper-parameters")
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2_penalty = l2_penalty
        self.seed = seed
        self._weights: np.ndarray | None = None
        self._bias = 0.0
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def _features(self, trajectories: TrajectoryDataset | list[Trajectory]) -> np.ndarray:
        return feature_matrix(trajectories)

    def fit(self, real: TrajectoryDataset,
            fake: TrajectoryDataset) -> "TrajectoryRealnessClassifier":
        """Train on labelled real and fake trajectory sets."""
        if len(real) < 2 or len(fake) < 2:
            raise ConfigurationError("need >= 2 trajectories per class")
        features = np.vstack([self._features(real), self._features(fake)])
        labels = np.concatenate([np.ones(len(real)), np.zeros(len(fake))])

        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-9
        x = (features - self._feature_mean) / self._feature_std

        rng = np.random.default_rng(self.seed)
        weights = np.zeros(x.shape[1])
        bias = 0.0
        n = x.shape[0]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            logits = x[order] @ weights + bias
            probabilities = 1.0 / (1.0 + np.exp(-logits))
            error = probabilities - labels[order]
            grad_w = x[order].T @ error / n + self.l2_penalty * weights
            grad_b = float(error.mean())
            weights -= self.learning_rate * grad_w
            bias -= self.learning_rate * grad_b
        self._weights = weights
        self._bias = bias
        return self

    def predict_probability(self,
                            trajectories: TrajectoryDataset | list[Trajectory]
                            ) -> np.ndarray:
        """P(real) per trajectory."""
        if not self.is_fitted:
            raise ConfigurationError("classifier has not been fitted")
        x = (self._features(trajectories) - self._feature_mean) / self._feature_std
        logits = x @ self._weights + self._bias
        return 1.0 / (1.0 + np.exp(-logits))

    def predict(self, trajectories: TrajectoryDataset | list[Trajectory]) -> np.ndarray:
        """Hard labels: 1 = judged real, 0 = judged fake."""
        return (self.predict_probability(trajectories) >= 0.5).astype(int)

    def accuracy(self, real: TrajectoryDataset,
                 fake: TrajectoryDataset) -> float:
        """Balanced accuracy on held-out real/fake sets.

        0.5 means the classifier cannot separate the distributions — the
        outcome RF-Protect aims for; values near 1.0 mean the fake source
        is trivially detectable.
        """
        real_hits = float(self.predict(real).mean())
        fake_hits = float(1.0 - self.predict(fake).mean())
        return 0.5 * (real_hits + fake_hits)
