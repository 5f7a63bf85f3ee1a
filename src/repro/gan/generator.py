"""The conditional trajectory generator (Fig. 6, left).

Architecture as described in Sec. 6: a Gaussian noise vector ``z`` is
concatenated with the embedded range label, passed through a fully connected
layer, unrolled through a two-layer LSTM (dropout 0.5 in the paper's
configuration), and reshaped by a final fully connected layer into a
sequence of 2-D *steps*. Integrating the steps yields the trajectory (see
``repro.gan.sampling``); generating in step space is what makes smoothness
a local property the LSTM can learn.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.functional import concat, embedding, repeat_sequence
from repro.nn.layers import Embedding, Linear, Module
from repro.nn.recurrent import LSTM
from repro.nn.tensor import Tensor, default_dtype

__all__ = ["TrajectoryGenerator"]


class TrajectoryGenerator(Module):
    """cGAN generator: ``(z, label) -> (B, num_steps, 2)`` normalized steps."""

    def __init__(self, *, noise_dim: int = 16, hidden_size: int = 64,
                 embed_dim: int = 8, num_steps: int = 49,
                 num_classes: int = 5, num_layers: int = 2,
                 dropout_probability: float = 0.5,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if noise_dim < 1 or num_steps < 1:
            raise ConfigurationError("noise_dim and num_steps must be >= 1")
        if num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if rng is None:
            rng = np.random.default_rng(0)
        self.noise_dim = noise_dim
        self.num_steps = num_steps
        self.num_classes = num_classes
        self.embedding = Embedding(num_classes, embed_dim, rng)
        self.input_layer = Linear(noise_dim + embed_dim, hidden_size, rng)
        self.lstm = LSTM(hidden_size, hidden_size, rng, num_layers=num_layers,
                         dropout_probability=dropout_probability)
        self.output_layer = Linear(hidden_size, 2, rng)
        # Trainable per-class step-magnitude gain. The range label's primary
        # physical meaning is "how far this person moves", i.e. step
        # magnitude; giving the condition a direct multiplicative path makes
        # class control learnable at CPU model sizes (the paper's 512-unit
        # GPU model learns it through the embedding alone). The trainer
        # initializes it from the dataset's per-class step statistics.
        self.class_gain = Tensor(np.ones(num_classes, dtype=default_dtype()),
                                 requires_grad=True)

    def forward(self, z: Tensor, labels: np.ndarray) -> Tensor:
        """Generate normalized steps.

        Args:
            z: noise tensor ``(B, noise_dim)``.
            labels: integer class labels ``(B,)``.

        Returns:
            ``(B, num_steps, 2)`` tensor of normalized displacement steps.
        """
        labels = np.asarray(labels)
        if z.ndim != 2 or z.shape[1] != self.noise_dim:
            raise ConfigurationError(
                f"z must be (B, {self.noise_dim}), got {z.shape}"
            )
        if labels.shape != (z.shape[0],):
            raise ConfigurationError(
                f"labels must be ({z.shape[0]},), got {labels.shape}"
            )
        condition = concat([z, self.embedding(labels)], axis=1)
        seed = self.input_layer(condition).tanh()
        # The conditioning vector drives every timestep; the LSTM's internal
        # state provides the step-to-step variation. The whole scan stays in
        # stacked (T, B, H) form so the fused sequence kernel applies.
        stacked = self.lstm.forward_sequence(
            repeat_sequence(seed, self.num_steps)
        )
        batch_size = z.shape[0]
        hidden_size = stacked.shape[2]
        flat = stacked.reshape(self.num_steps * batch_size, hidden_size)
        # Bound each normalized step to ±3 RMS units via tanh: real human
        # steps essentially never exceed that, and an unbounded output lets
        # early training produce physically absurd strides that destabilize
        # the adversarial game.
        raw = self.output_layer(flat).reshape(self.num_steps, batch_size, 2)
        steps = raw.tanh() * 3.0
        steps = steps.transpose((1, 0, 2))
        gain = embedding(self.class_gain.reshape(self.num_classes, 1), labels)
        return steps * gain.reshape(batch_size, 1, 1)

    def sample_noise(self, batch_size: int,
                     rng: np.random.Generator) -> Tensor:
        """Draw the standard-normal noise input ``z ~ N(0, I)``."""
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        return Tensor(rng.standard_normal((batch_size, self.noise_dim)))

    def generate_steps(self, batch_size: int, labels: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Inference helper: normalized steps as a plain numpy array.

        Runs in eval mode with the parameters frozen, so no graph is built.
        """
        was_training = self.training
        self.eval()
        try:
            with self.frozen():
                output = self.forward(self.sample_noise(batch_size, rng),
                                      labels)
        finally:
            if was_training:
                self.train()
        return output.numpy()
