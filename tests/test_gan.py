"""Tests for repro.gan: generator, discriminator, trainer, sampler, baselines."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.gan import (
    GanConfig,
    GanTrainer,
    TrajectoryDiscriminator,
    TrajectoryGenerator,
    TrajectorySampler,
    random_motion_baseline,
    single_trajectory_baseline,
    uniform_linear_motion_baseline,
)
from repro.gan.sampling import steps_to_trajectory
from repro.nn import Tensor
from repro.trajectories import HumanMotionSimulator


@pytest.fixture()
def generator(rng):
    return TrajectoryGenerator(noise_dim=8, hidden_size=12, embed_dim=4,
                               num_steps=15, num_classes=5, rng=rng)


@pytest.fixture()
def discriminator(rng):
    return TrajectoryDiscriminator(hidden_size=12, embed_dim=4,
                                   feature_dim=8, num_classes=5, rng=rng)


class TestGenerator:
    def test_output_shape(self, generator, rng):
        z = generator.sample_noise(6, rng)
        steps = generator(z, np.zeros(6, dtype=int))
        assert steps.shape == (6, 15, 2)

    def test_noise_changes_output(self, generator, rng):
        labels = np.zeros(1, dtype=int)
        generator.eval()
        a = generator(generator.sample_noise(1, rng), labels).numpy()
        b = generator(generator.sample_noise(1, rng), labels).numpy()
        assert not np.allclose(a, b)

    def test_label_changes_output(self, generator, rng):
        generator.eval()
        z = generator.sample_noise(1, rng)
        a = generator(z, np.array([0])).numpy()
        b = generator(z, np.array([4])).numpy()
        assert not np.allclose(a, b)

    def test_generate_steps_is_eval_mode(self, generator, rng):
        generator.train()
        generator.generate_steps(2, np.zeros(2, dtype=int), rng)
        assert generator.training  # mode restored afterwards

    def test_generate_steps_builds_no_graph(self, generator, monkeypatch):
        labels = np.array([0, 2, 4])
        generator.eval()
        expected = generator(
            generator.sample_noise(3, np.random.default_rng(7)), labels)
        assert expected.requires_grad
        generator.train()
        before = list(generator.named_parameters())
        outputs = []
        forward = generator.forward

        def spy(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(generator, "forward", spy)
        steps = generator.generate_steps(3, labels,
                                         np.random.default_rng(7))
        assert np.array_equal(steps, expected.data)
        (output,) = outputs
        assert not output.requires_grad and output._parents == ()
        # Trainable again afterwards, in train mode.
        assert list(generator.named_parameters()) == before
        assert all(p.requires_grad for _name, p in before)
        assert generator.training

    def test_rejects_bad_shapes(self, generator, rng):
        with pytest.raises(ConfigurationError):
            generator(Tensor(np.zeros((2, 99))), np.zeros(2, dtype=int))
        with pytest.raises(ConfigurationError):
            generator(generator.sample_noise(2, rng), np.zeros(3, dtype=int))

    def test_gradients_reach_all_parameters(self, generator, rng):
        z = generator.sample_noise(2, rng)
        out = generator(z, np.zeros(2, dtype=int))
        (out ** 2.0).sum().backward()
        for parameter in generator.parameters():
            assert parameter.grad is not None


class TestDiscriminator:
    def test_logit_shape(self, discriminator, rng):
        steps = rng.standard_normal((4, 15, 2))
        logits = discriminator(steps, np.zeros(4, dtype=int))
        assert logits.shape == (4, 1)

    def test_score_in_unit_interval(self, discriminator, rng):
        steps = rng.standard_normal((4, 15, 2))
        scores = discriminator.score(steps, np.zeros(4, dtype=int))
        assert np.all((scores > 0) & (scores < 1))

    def test_score_builds_no_graph(self, discriminator, rng, monkeypatch):
        steps = rng.standard_normal((4, 15, 2))
        labels = np.array([0, 1, 3, 4])
        discriminator.eval()
        expected = discriminator(steps, labels).sigmoid().data.reshape(-1)
        discriminator.train()
        before = list(discriminator.named_parameters())
        outputs = []
        forward = discriminator.forward

        def spy(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(discriminator, "forward", spy)
        scores = discriminator.score(steps, labels)
        assert np.array_equal(scores, expected)
        (logits,) = outputs
        assert not logits.requires_grad and logits._parents == ()
        assert list(discriminator.named_parameters()) == before
        assert all(p.requires_grad for _name, p in before)
        assert discriminator.training

    def test_features_shape(self, discriminator, rng):
        steps = rng.standard_normal((3, 15, 2))
        features = discriminator.features(steps, np.zeros(3, dtype=int))
        assert features.shape == (3, 24)  # 2 * hidden_size

    def test_rejects_bad_shapes(self, discriminator, rng):
        with pytest.raises(ConfigurationError):
            discriminator(rng.standard_normal((4, 15, 3)),
                          np.zeros(4, dtype=int))
        with pytest.raises(ConfigurationError):
            discriminator(rng.standard_normal((4, 15, 2)),
                          np.zeros(5, dtype=int))

    def test_gradients_reach_all_parameters(self, discriminator, rng):
        steps = rng.standard_normal((2, 15, 2))
        logits = discriminator(steps, np.zeros(2, dtype=int))
        logits.sum().backward()
        for parameter in discriminator.parameters():
            assert parameter.grad is not None


class TestGanConfig:
    def test_paper_scale_matches_section_9(self):
        config = GanConfig.paper_scale()
        assert config.hidden_size == 512
        assert config.dropout_probability == 0.5
        assert config.batch_size == 128
        assert config.generator_lr == pytest.approx(1e-4)
        assert config.discriminator_lr == pytest.approx(2e-4)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": 1},
        {"label_smoothing": 0.4},
        {"clip_norm": 0.0},
        {"feature_matching_weight": -1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(TrainingError):
            GanConfig(**kwargs)


class TestGanTrainer:
    @pytest.fixture()
    def small_setup(self):
        simulator = HumanMotionSimulator(rng=np.random.default_rng(3),
                                         num_points=16)
        dataset = simulator.build_dataset(48)
        config = GanConfig(noise_dim=6, hidden_size=10, embed_dim=4,
                           feature_dim=8, batch_size=16, epochs=1,
                           dropout_probability=0.0, seed=1)
        return GanTrainer(dataset, config)

    def test_one_epoch_records_history(self, small_setup):
        history = small_setup.train(epochs=1)
        assert len(history.discriminator_losses) == 3  # 48 // 16
        assert len(history.generator_losses) == 3
        summary = history.summary()
        assert np.isfinite(summary["discriminator_loss"])
        assert 0 <= summary["real_score"] <= 1

    def test_training_changes_generator(self, small_setup):
        before = [p.data.copy() for p in small_setup.generator.parameters()]
        small_setup.train(epochs=1)
        after = list(small_setup.generator.parameters())
        assert any(not np.allclose(b, a.data)
                   for b, a in zip(before, after))

    def test_discriminator_learns_something(self, small_setup):
        small_setup.train(epochs=3)
        summary = small_setup.history.summary()
        # After a few epochs, D should rate real above fake on average.
        assert summary["real_score"] > summary["fake_score"]

    def test_summary_before_training_raises(self, small_setup):
        with pytest.raises(TrainingError):
            small_setup.history.summary()

    def test_rejects_bad_epochs(self, small_setup):
        with pytest.raises(TrainingError):
            small_setup.train(epochs=0)


class TestSampler:
    def test_steps_to_trajectory_integration(self):
        steps = np.array([[1.0, 0.0], [0.0, 1.0]])
        trajectory = steps_to_trajectory(steps, scale=2.0, dt=0.5)
        assert len(trajectory) == 3
        # centered: net displacement preserved
        net = trajectory.points[-1] - trajectory.points[0]
        assert net == pytest.approx([2.0, 2.0])
        assert trajectory.centroid() == pytest.approx([0.0, 0.0])

    def test_steps_to_trajectory_validation(self):
        with pytest.raises(ConfigurationError):
            steps_to_trajectory(np.zeros((3, 3)), scale=1.0, dt=0.1)
        with pytest.raises(ConfigurationError):
            steps_to_trajectory(np.zeros((3, 2)), scale=0.0, dt=0.1)

    def test_sample_count_and_labels(self, generator, rng):
        sampler = TrajectorySampler(generator, step_scale=0.1, dt=0.2)
        samples = sampler.sample(5, label=3, rng=rng)
        assert len(samples) == 5
        assert all(t.label == 3 for t in samples)
        assert all(len(t) == 16 for t in samples)  # num_steps + 1

    def test_sample_random_labels(self, generator, rng):
        sampler = TrajectorySampler(generator, step_scale=0.1, dt=0.2)
        samples = sampler.sample(20, rng=rng)
        assert len({t.label for t in samples}) > 1

    def test_sample_rejects_bad_label(self, generator, rng):
        sampler = TrajectorySampler(generator, step_scale=0.1, dt=0.2)
        with pytest.raises(ConfigurationError):
            sampler.sample(1, label=9, rng=rng)


class TestBaselines:
    def test_single_trajectory_repeats_with_jitter(self, rng,
                                                   sample_trajectory):
        dataset = single_trajectory_baseline(sample_trajectory, 10, rng,
                                             jitter=0.02)
        assert len(dataset) == 10
        reference = sample_trajectory.centered()
        for trajectory in dataset:
            deviation = np.linalg.norm(
                trajectory.points - reference.points, axis=1
            ).max()
            assert deviation < 0.15  # same walk up to execution noise

    def test_ulm_is_straight_constant_speed(self, rng):
        dataset = uniform_linear_motion_baseline(5, rng)
        for trajectory in dataset:
            speeds = trajectory.speeds()
            assert speeds.std() == pytest.approx(0.0, abs=1e-9)
            assert np.abs(trajectory.turning_angles()).max() < 1e-6

    def test_random_motion_has_uncorrelated_steps(self, rng):
        dataset = random_motion_baseline(30, rng, step_scale=0.2)
        autocorrelations = []
        for trajectory in dataset:
            steps = trajectory.displacements().reshape(-1)
            a, b = steps[:-2], steps[2:]
            autocorrelations.append(
                a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            )
        assert abs(np.mean(autocorrelations)) < 0.15

    def test_baseline_format_matches_real(self, rng):
        ulm = uniform_linear_motion_baseline(3, rng, num_points=50)
        assert ulm.num_points == 50
        assert ulm.dt == pytest.approx(10.0 / 49.0)

    def test_rejects_bad_counts(self, rng, sample_trajectory):
        with pytest.raises(ConfigurationError):
            single_trajectory_baseline(sample_trajectory, 0, rng)
        with pytest.raises(ConfigurationError):
            uniform_linear_motion_baseline(0, rng)
        with pytest.raises(ConfigurationError):
            random_motion_baseline(5, rng, step_scale=0.0)
