"""The conditional trajectory discriminator (Fig. 6, right).

Per Sec. 6: each timestep's input (a 2-D step concatenated with the
embedded range label) passes through a fully connected layer, a
bidirectional LSTM reads the sequence, and a final fully connected layer
produces the realness score. The forward pass returns *logits*; training
uses the numerically-stable BCE-with-logits, and :meth:`score` applies the
paper's sigmoid for probability readouts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.functional import concat
from repro.nn.layers import Embedding, Linear, Module
from repro.nn.recurrent import BiLSTM
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["TrajectoryDiscriminator"]


class TrajectoryDiscriminator(Module):
    """cGAN discriminator: ``(steps, label) -> (B, 1)`` realness logits."""

    def __init__(self, *, hidden_size: int = 64, embed_dim: int = 8,
                 feature_dim: int = 32, num_classes: int = 5,
                 dropout_probability: float = 0.5,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if hidden_size < 1 or feature_dim < 1:
            raise ConfigurationError("hidden_size and feature_dim must be >= 1")
        if rng is None:
            rng = np.random.default_rng(1)
        self.num_classes = num_classes
        self.embedding = Embedding(num_classes, embed_dim, rng)
        self.input_layer = Linear(2 + embed_dim, feature_dim, rng)
        self.bilstm = BiLSTM(feature_dim, hidden_size, rng,
                             dropout_probability=dropout_probability)
        self.output_layer = Linear(2 * hidden_size, 1, rng)

    def features(self, steps: Tensor | np.ndarray, labels: np.ndarray) -> Tensor:
        """The ``(B, 2H)`` BiLSTM summary before the scoring layer.

        Exposed for feature-matching generator training: matching the mean
        of these features between real and generated batches keeps the
        generator learning even when the adversarial loss saturates.
        """
        steps = as_tensor(steps)
        if steps.ndim != 3 or steps.shape[2] != 2:
            raise ConfigurationError(
                f"steps must be (B, T, 2), got {steps.shape}"
            )
        labels = np.asarray(labels)
        if labels.shape != (steps.shape[0],):
            raise ConfigurationError(
                f"labels must be ({steps.shape[0]},), got {labels.shape}"
            )
        batch_size, num_steps = steps.shape[0], steps.shape[1]
        # Time-distributed input layer applied in one shot: (B*T, 2+e).
        flat_steps = steps.reshape(batch_size * num_steps, 2)
        repeated_labels = np.repeat(labels, num_steps)
        flat_features = self.input_layer(
            concat([flat_steps, self.embedding(repeated_labels)], axis=1)
        ).tanh()
        features = flat_features.reshape(
            batch_size, num_steps, flat_features.shape[1]
        )
        # Hand the BiLSTM the stacked (T, B, F) form directly so both
        # directions run through the sequence kernels.
        return self.bilstm.final_summary(features.transpose((1, 0, 2)))

    def forward(self, steps: Tensor | np.ndarray, labels: np.ndarray) -> Tensor:
        """Score a batch of step sequences.

        Args:
            steps: ``(B, T, 2)`` normalized steps (tensor or array).
            labels: integer class labels ``(B,)``.

        Returns:
            ``(B, 1)`` logits — positive means "looks real".
        """
        return self.output_layer(self.features(steps, labels))

    def score(self, steps: Tensor | np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Probability-of-real per trajectory (sigmoid of the logits).

        Runs in eval mode with the parameters frozen, so no graph is built.
        """
        was_training = self.training
        self.eval()
        try:
            with self.frozen():
                logits = self.forward(steps, labels)
        finally:
            if was_training:
                self.train()
        return logits.sigmoid().numpy().reshape(-1)
