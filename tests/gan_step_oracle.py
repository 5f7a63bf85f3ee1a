"""GAN step oracle: the historical three-pass D step and two-pass G step.

Production training (:class:`repro.gan.trainer.GanTrainer`) freezes the
network a step does not update, scores the real, fake and mismatched-label
batches in one discriminator pass, and reads the G step's logits off the
fake-batch features it already computed. This module keeps the steps it
replaced — a full generator graph detached for the D step, one
discriminator pass per batch, and a G step that runs the discriminator
twice over the fake batch and back-propagates into its weights — so the
oracle suite can pin the new steps to them: the same draws, the same
losses, and parameters equal up to summation order.
"""

from __future__ import annotations

import numpy as np

from repro.gan.trainer import GanTrainer
from repro.nn.functional import bce_with_logits


def discriminator_step(trainer: GanTrainer, real_steps: np.ndarray,
                       labels: np.ndarray) -> tuple[float, float, float]:
    """One D step as three batch-sized discriminator passes."""
    config = trainer.config
    batch_size = real_steps.shape[0]
    fake_labels = trainer.rng.integers(0, config.num_classes, batch_size)
    noise = trainer.generator.sample_noise(batch_size, trainer.rng)
    fake_steps = trainer.generator(noise, fake_labels).detach()

    trainer.discriminator_optimizer.zero_grad()
    real_logits = trainer.discriminator(real_steps, labels)
    fake_logits = trainer.discriminator(fake_steps, fake_labels)
    real_targets = np.full(real_logits.shape, config.label_smoothing,
                           dtype=real_logits.data.dtype)
    fake_targets = np.zeros(fake_logits.shape, dtype=fake_logits.data.dtype)
    loss = (bce_with_logits(real_logits, real_targets)
            + bce_with_logits(fake_logits, fake_targets))
    if config.mismatched_label_weight > 0:
        wrong_labels = (labels + trainer.rng.integers(
            1, config.num_classes, batch_size)) % config.num_classes
        mismatched_logits = trainer.discriminator(real_steps, wrong_labels)
        loss = loss + config.mismatched_label_weight * bce_with_logits(
            mismatched_logits,
            np.zeros(mismatched_logits.shape,
                     dtype=mismatched_logits.data.dtype))
    loss.backward()
    trainer.discriminator_optimizer.clip_gradients(config.clip_norm)
    trainer.discriminator_optimizer.step()

    real_score = float(1.0 / (1.0 + np.exp(-real_logits.data)).mean())
    fake_score = float(1.0 / (1.0 + np.exp(-fake_logits.data)).mean())
    return float(loss.data), real_score, fake_score


def generator_step(trainer: GanTrainer, real_steps: np.ndarray,
                   real_labels: np.ndarray) -> float:
    """One G step with two discriminator passes over the fake batch."""
    config = trainer.config
    batch_size = real_steps.shape[0]
    labels = real_labels
    noise = trainer.generator.sample_noise(batch_size, trainer.rng)

    trainer.generator_optimizer.zero_grad()
    trainer.discriminator.zero_grad()
    fake_steps = trainer.generator(noise, labels)
    logits = trainer.discriminator(fake_steps, labels)
    loss = bce_with_logits(logits,
                           np.ones(logits.shape, dtype=logits.data.dtype))
    if config.feature_matching_weight > 0:
        fake_features = trainer.discriminator.features(fake_steps, labels)
        real_features = trainer.discriminator.features(real_steps, labels)
        matching = (fake_features.mean(axis=0)
                    - real_features.detach().mean(axis=0)).pow(2.0).sum()
        loss = loss + config.feature_matching_weight * matching
    loss.backward()
    trainer.generator_optimizer.clip_gradients(config.clip_norm)
    trainer.generator_optimizer.step()
    return float(loss.data)


def train_epoch(trainer: GanTrainer) -> list[tuple[float, float, float, float]]:
    """One epoch of :meth:`GanTrainer.train` on the oracle steps.

    Returns per batch ``(d_loss, real_score, fake_score, g_loss)``.
    """
    trainer.generator.train()
    trainer.discriminator.train()
    records = []
    for real_steps, labels in trainer.dataset.batches(
            trainer.config.batch_size, trainer.rng, scale=trainer.step_scale):
        d_loss, real_score, fake_score = discriminator_step(
            trainer, real_steps, labels)
        g_loss = generator_step(trainer, real_steps, labels)
        records.append((d_loss, real_score, fake_score, g_loss))
    return records
