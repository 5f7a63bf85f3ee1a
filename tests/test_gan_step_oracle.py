"""Oracle suite: the GAN trainer's steps against the historical steps.

:mod:`tests.gan_step_oracle` keeps the three-pass D step and the two-pass
G step that :class:`~repro.gan.trainer.GanTrainer` replaced. Twin float64
trainers, one on each, must consume the generator identically (same
draws, same order) and agree on every loss, score and parameter up to
summation order, which is the only arithmetic the new steps change. The
suite also pins what the new steps no longer compute: no graph for the D
step's fake batch, no gradient into the frozen network, and one
discriminator pass per batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.gan.trainer import GanConfig, GanTrainer
from repro.nn import dtype_scope, nn_metrics
from repro.trajectories import HumanMotionSimulator
from tests import gan_step_oracle as oracle

#: Relative agreement of the float64 twins (summation order only).
RTOL = 1e-10

BASE = GanConfig(noise_dim=6, hidden_size=10, embed_dim=4, feature_dim=8,
                 batch_size=16, epochs=1, dropout_probability=0.3, seed=1)

VARIANTS = {
    "default": BASE,
    "no-feature-matching": dataclasses.replace(
        BASE, feature_matching_weight=0.0),
    "no-mismatched-labels": dataclasses.replace(
        BASE, mismatched_label_weight=0.0),
    "no-dropout": dataclasses.replace(BASE, dropout_probability=0.0),
}


def make_trainer(config: GanConfig = BASE) -> GanTrainer:
    dataset = HumanMotionSimulator(
        rng=np.random.default_rng(3), num_points=16).build_dataset(48)
    with dtype_scope("float64"):
        return GanTrainer(dataset, config)


def all_parameters(trainer: GanTrainer) -> dict[str, np.ndarray]:
    named = {f"G.{name}": p.data
             for name, p in trainer.generator.named_parameters()}
    named.update({f"D.{name}": p.data
                  for name, p in trainer.discriminator.named_parameters()})
    return named


def first_batch(trainer: GanTrainer) -> tuple[np.ndarray, np.ndarray]:
    return next(iter(trainer.dataset.batches(
        trainer.config.batch_size, trainer.rng, scale=trainer.step_scale)))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_steps_match_the_oracle_over_several_epochs(variant):
    config = VARIANTS[variant]
    trainer, reference = make_trainer(config), make_trainer(config)
    with dtype_scope("float64"):
        for _epoch in range(3):
            trainer.train(epochs=1)
            records = oracle.train_epoch(reference)
            history = trainer.history
            tail = len(records)
            actual = np.array([history.discriminator_losses[-tail:],
                               history.real_scores[-tail:],
                               history.fake_scores[-tail:],
                               history.generator_losses[-tail:]]).T
            np.testing.assert_allclose(actual, np.array(records),
                                       rtol=RTOL, atol=0.0)
            assert (trainer.rng.bit_generator.state
                    == reference.rng.bit_generator.state)
    expected = all_parameters(reference)
    for name, value in all_parameters(trainer).items():
        np.testing.assert_allclose(value, expected[name], rtol=RTOL,
                                   atol=1e-14, err_msg=name)


def test_discriminator_step_builds_no_generator_graph(monkeypatch):
    trainer = make_trainer()
    outputs = []
    forward = trainer.generator.forward

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        outputs.append(out)
        return out

    monkeypatch.setattr(trainer.generator, "forward", spy)
    real_steps, labels = first_batch(trainer)
    with dtype_scope("float64"):
        trainer._discriminator_step(real_steps, labels)
    (fake,) = outputs
    assert not fake.requires_grad
    assert fake._parents == ()
    assert all(p.grad is None for p in trainer.generator.parameters())
    assert all(p.grad is not None
               for p in trainer.discriminator.parameters())


def test_generator_step_leaves_no_discriminator_gradient():
    trainer = make_trainer()
    real_steps, labels = first_batch(trainer)
    with dtype_scope("float64"):
        trainer._discriminator_step(real_steps, labels)
        trainer._generator_step(real_steps, labels)
    assert all(p.grad is None for p in trainer.discriminator.parameters())
    assert all(p.grad is not None for p in trainer.generator.parameters())


def test_steps_leave_every_parameter_trainable():
    trainer = make_trainer()

    def parameters():
        return (list(trainer.generator.named_parameters())
                + list(trainer.discriminator.named_parameters()))

    before = parameters()
    with dtype_scope("float64"):
        trainer.train(epochs=1)
    assert parameters() == before


def lstm_scans() -> int:
    histograms = nn_metrics().snapshot()["histograms"]
    return int(histograms.get("nn.lstm_sequence.wall_s", {"count": 0})["count"])


def test_one_discriminator_pass_per_batch():
    """D step: G's two layers + one BiLSTM pass; G step: G + two D passes."""
    trainer = make_trainer()
    real_steps, labels = first_batch(trainer)
    with dtype_scope("float64"):
        before = lstm_scans()
        trainer._discriminator_step(real_steps, labels)
        after_d = lstm_scans()
        trainer._generator_step(real_steps, labels)
        after_g = lstm_scans()
    assert after_d - before == 2 + 2
    assert after_g - after_d == 2 + 2 + 2
