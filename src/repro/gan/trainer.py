"""cGAN training loop implementing the minimax loss of Eq. 4.

Per Sec. 9.2: Adam, generator learning rate 1e-4, discriminator 2e-4,
mini-batches of 128. The defaults here are scaled for CPU training on the
numpy engine (smaller hidden size and batch); `GanConfig.paper_scale()`
returns the paper's full configuration for completeness.

Stability aids, all standard: one-sided label smoothing on real targets,
gradient-norm clipping, and fresh noise for the generator step.

Each step runs only the recurrent work whose result it trains on. The
network a step does not update is frozen (:meth:`Module.frozen`): the D
step samples its fake batch without building a generator graph and scores
the real, fake and mismatched-label batches in one discriminator pass over
their concatenation; the G step reads the logits off the same fake-batch
features that feature matching compares, and back-propagates through the
discriminator into its input only.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.errors import TrainingError
from repro.gan.discriminator import TrajectoryDiscriminator
from repro.gan.generator import TrajectoryGenerator
from repro.nn.functional import bce_with_logits, concat
from repro.nn.metrics import observe_op
from repro.nn.optim import Adam
from repro.nn.tensor import as_tensor
from repro.trajectories.dataset import TrajectoryDataset

__all__ = ["GanConfig", "GanTrainer", "TrainingHistory"]

@dataclasses.dataclass(frozen=True)
class GanConfig:
    """Hyper-parameters for cGAN training.

    Defaults are CPU-sized; ``paper_scale()`` gives the paper's settings.
    """

    noise_dim: int = 16
    hidden_size: int = 64
    embed_dim: int = 8
    feature_dim: int = 32
    num_classes: int = 5
    num_layers: int = 2
    dropout_probability: float = 0.2
    generator_lr: float = 1e-4
    discriminator_lr: float = 2e-4
    batch_size: int = 64
    epochs: int = 10
    label_smoothing: float = 0.9
    clip_norm: float = 5.0
    feature_matching_weight: float = 1.0
    mismatched_label_weight: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 2:
            raise TrainingError("batch_size must be >= 2")
        if not 0.5 < self.label_smoothing <= 1.0:
            raise TrainingError("label_smoothing must be in (0.5, 1]")
        if self.clip_norm <= 0:
            raise TrainingError("clip_norm must be positive")
        if self.feature_matching_weight < 0:
            raise TrainingError("feature_matching_weight must be >= 0")
        if self.mismatched_label_weight < 0:
            raise TrainingError("mismatched_label_weight must be >= 0")

    @staticmethod
    def paper_scale() -> "GanConfig":
        """The configuration reported in Sec. 6/9.2 of the paper.

        Hidden size 512, dropout 0.5, batch 128, lr 1e-4/2e-4. Training this
        on the numpy engine takes hours (the paper used a GPU for 5 hours);
        it exists for fidelity, not for routine runs.
        """
        return GanConfig(noise_dim=64, hidden_size=512, embed_dim=16,
                         feature_dim=64, dropout_probability=0.5,
                         batch_size=128, epochs=100)


@dataclasses.dataclass
class TrainingHistory:
    """Per-step diagnostics collected during training."""

    discriminator_losses: list[float] = dataclasses.field(default_factory=list)
    generator_losses: list[float] = dataclasses.field(default_factory=list)
    real_scores: list[float] = dataclasses.field(default_factory=list)
    fake_scores: list[float] = dataclasses.field(default_factory=list)

    def summary(self) -> dict[str, float]:
        """Means over the last quarter of training (the settled regime)."""
        if not self.discriminator_losses:
            raise TrainingError("no training steps recorded")
        tail = max(len(self.discriminator_losses) // 4, 1)
        return {
            "discriminator_loss": float(np.mean(self.discriminator_losses[-tail:])),
            "generator_loss": float(np.mean(self.generator_losses[-tail:])),
            "real_score": float(np.mean(self.real_scores[-tail:])),
            "fake_score": float(np.mean(self.fake_scores[-tail:])),
        }


class GanTrainer:
    """Owns the generator/discriminator pair and runs adversarial training."""

    def __init__(self, dataset: TrajectoryDataset,
                 config: GanConfig | None = None) -> None:
        self.config = config if config is not None else GanConfig()
        self.dataset = dataset
        self.step_scale = dataset.step_scale()
        num_steps = dataset.num_points - 1
        rng = np.random.default_rng(self.config.seed)
        self.rng = rng
        self.generator = TrajectoryGenerator(
            noise_dim=self.config.noise_dim,
            hidden_size=self.config.hidden_size,
            embed_dim=self.config.embed_dim,
            num_steps=num_steps,
            num_classes=self.config.num_classes,
            num_layers=self.config.num_layers,
            dropout_probability=self.config.dropout_probability,
            rng=rng,
        )
        self.discriminator = TrajectoryDiscriminator(
            hidden_size=self.config.hidden_size,
            embed_dim=self.config.embed_dim,
            feature_dim=self.config.feature_dim,
            num_classes=self.config.num_classes,
            dropout_probability=self.config.dropout_probability,
            rng=rng,
        )
        self._initialize_class_gains()
        self.generator_optimizer = Adam(self.generator.parameters(),
                                        self.config.generator_lr)
        self.discriminator_optimizer = Adam(self.discriminator.parameters(),
                                            self.config.discriminator_lr)
        self.history = TrainingHistory()

    def _initialize_class_gains(self) -> None:
        """Seed the generator's per-class gain from dataset statistics.

        The gain for class ``c`` starts at the RMS step of class-``c``
        trajectories relative to the dataset-wide RMS step, so conditional
        sampling produces the right motion-range regime from step one;
        training refines the values from there.
        """
        labels = self.dataset.labels()
        steps = self.dataset.steps_array()
        gains = np.ones(self.config.num_classes, dtype=np.float64)
        for label in range(self.config.num_classes):
            mask = labels == label
            if not np.any(mask):
                continue
            class_rms = float(np.sqrt(np.mean(steps[mask] ** 2)))
            gains[label] = max(class_rms / self.step_scale, 1e-3)
        # Cast into the parameter's dtype: assigning the float64 statistics
        # directly would silently re-widen a float32-policy parameter.
        self.generator.class_gain.data = gains.astype(
            self.generator.class_gain.data.dtype
        )

    def _discriminator_step(self, real_steps: np.ndarray,
                            labels: np.ndarray) -> tuple[float, float, float]:
        started = time.perf_counter()
        batch_size = real_steps.shape[0]
        num_classes = self.config.num_classes
        fake_labels = self.rng.integers(0, num_classes, batch_size)
        noise = self.generator.sample_noise(batch_size, self.rng)
        with self.generator.frozen():
            fake_steps = self.generator(noise, fake_labels)
        real = as_tensor(real_steps)
        parts, part_labels = [real, fake_steps], [labels, fake_labels]
        mismatched = self.config.mismatched_label_weight > 0
        if mismatched:
            # Real trajectories with WRONG labels are negatives too: this
            # is what forces the discriminator to check label/range
            # consistency, and hence the generator to honor the condition.
            wrong_labels = (labels + self.rng.integers(
                1, num_classes, batch_size)) % num_classes
            parts.append(real)
            part_labels.append(wrong_labels)

        self.discriminator_optimizer.zero_grad()
        # Scoring is row-independent, so one pass over the concatenated
        # batch gives each part the logits a pass of its own would.
        logits = self.discriminator(concat(parts, axis=0),
                                    np.concatenate(part_labels))
        real_logits = logits[:batch_size]
        fake_logits = logits[batch_size: 2 * batch_size]
        real_targets = np.full(real_logits.shape, self.config.label_smoothing,
                               dtype=logits.data.dtype)
        fake_targets = np.zeros(fake_logits.shape, dtype=logits.data.dtype)
        loss = (bce_with_logits(real_logits, real_targets)
                + bce_with_logits(fake_logits, fake_targets))
        if mismatched:
            loss = loss + self.config.mismatched_label_weight * bce_with_logits(
                logits[2 * batch_size:], fake_targets)
        loss.backward()
        self.discriminator_optimizer.clip_gradients(self.config.clip_norm)
        self.discriminator_optimizer.step()

        real_score = float(1.0 / (1.0 + np.exp(-real_logits.data)).mean())
        fake_score = float(1.0 / (1.0 + np.exp(-fake_logits.data)).mean())
        observe_op("gan.discriminator_step", time.perf_counter() - started)
        return float(loss.data), real_score, fake_score

    def _generator_step(self, real_steps: np.ndarray,
                        real_labels: np.ndarray) -> float:
        started = time.perf_counter()
        batch_size = real_steps.shape[0]
        # Condition the fake batch on the real batch's labels so the
        # feature-matching targets compare like with like.
        labels = real_labels
        noise = self.generator.sample_noise(batch_size, self.rng)

        self.generator_optimizer.zero_grad()
        self.discriminator.zero_grad()
        with self.discriminator.frozen():
            fake_steps = self.generator(noise, labels)
            fake_features = self.discriminator.features(fake_steps, labels)
            logits = self.discriminator.output_layer(fake_features)
            # Non-saturating generator loss: maximize log D(G(z)).
            loss = bce_with_logits(
                logits, np.ones(logits.shape, dtype=logits.data.dtype))
            if self.config.feature_matching_weight > 0:
                # Feature matching (Salimans et al. 2016): align the mean
                # discriminator features of fake and real batches. Keeps
                # the generator improving after the adversarial signal
                # saturates. The real features are a constant here.
                real_features = self.discriminator.features(real_steps,
                                                            labels)
                matching = (fake_features.mean(axis=0)
                            - real_features.mean(axis=0)).pow(2.0).sum()
                loss = loss + self.config.feature_matching_weight * matching
            loss.backward()
        self.generator_optimizer.clip_gradients(self.config.clip_norm)
        self.generator_optimizer.step()
        observe_op("gan.generator_step", time.perf_counter() - started)
        return float(loss.data)

    def train(self, *, epochs: int | None = None,
              progress: bool = False) -> TrainingHistory:
        """Run adversarial training; returns the accumulated history."""
        if epochs is None:
            epochs = self.config.epochs
        if epochs < 1:
            raise TrainingError("epochs must be >= 1")
        self.generator.train()
        self.discriminator.train()
        for epoch in range(epochs):
            for real_steps, labels in self.dataset.batches(
                    self.config.batch_size, self.rng, scale=self.step_scale):
                d_loss, real_score, fake_score = self._discriminator_step(
                    real_steps, labels)
                g_loss = self._generator_step(real_steps, labels)
                self.history.discriminator_losses.append(d_loss)
                self.history.generator_losses.append(g_loss)
                self.history.real_scores.append(real_score)
                self.history.fake_scores.append(fake_score)
                if not np.isfinite(d_loss) or not np.isfinite(g_loss):
                    raise TrainingError(
                        f"training diverged at epoch {epoch}: "
                        f"d_loss={d_loss}, g_loss={g_loss}"
                    )
            if progress:
                summary = self.history.summary()
                print(f"epoch {epoch + 1}/{epochs}: "
                      f"D={summary['discriminator_loss']:.3f} "
                      f"G={summary['generator_loss']:.3f} "
                      f"D(real)={summary['real_score']:.2f} "
                      f"D(fake)={summary['fake_score']:.2f}")
        return self.history
