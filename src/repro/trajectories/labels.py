"""Range-of-motion labelling (Sec. 6).

The paper classifies its trajectory dataset "into five classes based on
ranges of motion" and conditions the cGAN on the class. The *range* of a
trajectory is the diameter of its point set — the largest distance between
two of its points (:meth:`~repro.types.Trajectory.motion_range`), which is
rotation invariant and memoized on the trajectory; the class edges below
span from near-stationary shuffling (class 0) to purposeful room-crossing
walks (class 4).
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.errors import DatasetError
from repro.types import Trajectory

__all__ = ["DEFAULT_RANGE_EDGES", "range_class", "range_class_of_trajectory"]

DEFAULT_RANGE_EDGES = (0.5, 1.5, 3.0, 5.0)
"""Class boundaries in meters: 5 classes need 4 edges."""


def range_class(motion_range: float,
                edges: tuple[float, ...] = DEFAULT_RANGE_EDGES) -> int:
    """Class index (0-based) of a motion range in meters."""
    if motion_range < 0:
        raise DatasetError(f"motion range must be >= 0, got {motion_range}")
    if len(edges) != constants.NUM_RANGE_CLASSES - 1:
        raise DatasetError(
            f"{constants.NUM_RANGE_CLASSES} classes need "
            f"{constants.NUM_RANGE_CLASSES - 1} edges, got {len(edges)}"
        )
    if any(b <= a for a, b in zip(edges, edges[1:])) or edges[0] <= 0:
        raise DatasetError(f"edges must be positive and increasing, got {edges}")
    return int(np.searchsorted(edges, motion_range, side="left"))


def range_class_of_trajectory(trajectory: Trajectory,
                              edges: tuple[float, ...] = DEFAULT_RANGE_EDGES) -> int:
    """Class index of a trajectory's motion range (its point-set diameter)."""
    return range_class(trajectory.motion_range(), edges)
