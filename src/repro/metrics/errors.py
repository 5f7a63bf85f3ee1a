"""Empirical CDF helpers for the error plots (Fig. 11)."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["empirical_cdf"]


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and their empirical CDF levels in (0, 1].

    The i-th level is ``(i + 1) / n`` so the largest value maps to 1.0 —
    the convention the paper's CDF plots use.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ConfigurationError("empirical_cdf needs at least one value")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("empirical_cdf values must be finite")
    ordered = np.sort(arr)
    levels = np.arange(1, ordered.size + 1) / ordered.size
    return ordered, levels
