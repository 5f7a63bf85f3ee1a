"""Statistical tests used by the evaluation.

The user-study analysis (Table 1) runs a Pearson chi-square test of
independence between a trajectory's trueness and its perceived trueness;
a two-sample Kolmogorov-Smirnov test is provided for distribution-level
comparisons elsewhere in the benches.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.special

from repro.errors import ConfigurationError

__all__ = ["TestResult", "chi_square_independence", "ks_two_sample"]


@dataclasses.dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    statistic: float
    p_value: float
    degrees_of_freedom: int

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level ``alpha``."""
        if not 0 < alpha < 1:
            raise ConfigurationError("alpha must be in (0, 1)")
        return self.p_value < alpha


def chi_square_independence(table: np.ndarray) -> TestResult:
    """Pearson chi-square test of independence on a contingency table.

    Args:
        table: ``(rows, cols)`` array of observed counts (e.g. Table 1's
            2x2 of trueness x perceived-trueness).

    Returns:
        Test statistic, p-value, and degrees of freedom. A *high* p-value
        on Table 1 is the paper's desired outcome: perception carries no
        information about trueness.
    """
    observed = np.asarray(table, dtype=float)
    if observed.ndim != 2 or observed.shape[0] < 2 or observed.shape[1] < 2:
        raise ConfigurationError("contingency table must be at least 2x2")
    if np.any(observed < 0):
        raise ConfigurationError("counts must be non-negative")
    total = observed.sum()
    if total == 0:
        raise ConfigurationError("contingency table is empty")

    row_sums = observed.sum(axis=1, keepdims=True)
    col_sums = observed.sum(axis=0, keepdims=True)
    expected = row_sums @ col_sums / total
    if np.any(expected == 0):
        raise ConfigurationError("a row or column of the table is all zeros")

    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = (observed.shape[0] - 1) * (observed.shape[1] - 1)
    # The chi-square survival function, as ``scipy.stats.chi2.sf``
    # evaluates it, without importing ``scipy.stats`` at load.
    p_value = float(scipy.special.chdtrc(dof, statistic))
    return TestResult(statistic=statistic, p_value=p_value,
                      degrees_of_freedom=dof)


def ks_two_sample(sample_a: np.ndarray, sample_b: np.ndarray) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test (two-sided)."""
    a = np.asarray(sample_a, dtype=float).reshape(-1)
    b = np.asarray(sample_b, dtype=float).reshape(-1)
    if a.size < 2 or b.size < 2:
        raise ConfigurationError("KS test needs >= 2 samples per side")
    import scipy.stats  # deferred: slow to import, and only this test uses it

    result = scipy.stats.ks_2samp(a, b)
    return TestResult(statistic=float(result.statistic),
                      p_value=float(result.pvalue),
                      degrees_of_freedom=0)
