"""Floor-plan awareness for ghost trajectories (Sec. 8, future work).

The paper notes a limitation: cGAN ghosts "may unintentionally walk through
walls" if the eavesdropper knows the building's floor plan, and proposes
constraining generation with floor-plan knowledge. This module implements
that extension:

- :class:`FloorPlan`: a room footprint plus interior wall segments, with
  segment-intersection tests;
- :func:`count_wall_crossings`: the detectability metric (how many steps of
  a trajectory pass through a wall);
- :class:`FloorPlanConstraint`: repairs or rejects trajectories so ghosts
  respect walls, usable as a filter behind any trajectory source (GAN,
  simulator, baselines).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.errors import DatasetError
from repro.geometry import Rectangle
from repro.types import Trajectory

__all__ = ["FloorPlan", "FloorPlanConstraint", "Wall", "count_wall_crossings"]


@dataclasses.dataclass(frozen=True)
class Wall:
    """An interior wall segment from ``start`` to ``end`` (meters)."""

    start: tuple[float, float]
    end: tuple[float, float]

    def __post_init__(self) -> None:
        if np.allclose(self.start, self.end):
            raise DatasetError(f"degenerate wall at {self.start}")

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.start, dtype=float),
                np.asarray(self.end, dtype=float))


def _segments_intersect(p1: np.ndarray, p2: np.ndarray,
                        q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Segment intersection via orientation tests (collinear-safe).

    Each argument is an ``(..., 2)`` array of endpoints; the test
    broadcasts, so one call checks every step of a trajectory against a
    wall. A proper crossing needs all four orientations nonzero and
    pairwise opposite; a collinear endpoint counts when it lies within
    the other segment's bounding box widened by 1e-12.
    """

    def orientation(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    def on_segment(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        inside = ((np.minimum(a, b) - 1e-12 <= c)
                  & (c <= np.maximum(a, b) + 1e-12))
        return inside[..., 0] & inside[..., 1]

    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    proper = (((o1 > 0) != (o2 > 0)) & ((o3 > 0) != (o4 > 0))
              & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0))
    touching = (((o1 == 0) & on_segment(p1, p2, q1))
                | ((o2 == 0) & on_segment(p1, p2, q2))
                | ((o3 == 0) & on_segment(q1, q2, p1))
                | ((o4 == 0) & on_segment(q1, q2, p2)))
    return proper | touching


class FloorPlan:
    """A room footprint with interior walls."""

    def __init__(self, footprint: Rectangle,
                 walls: Sequence[Wall] = ()) -> None:
        self.footprint = footprint
        self.walls = list(walls)
        for wall in self.walls:
            start, end = wall.as_arrays()
            if not (footprint.contains(start) and footprint.contains(end)):
                raise DatasetError(
                    f"wall {wall.start}->{wall.end} extends outside the room"
                )

    def add_wall(self, start: tuple[float, float],
                 end: tuple[float, float]) -> Wall:
        """Add an interior wall; returns it."""
        wall = Wall(start, end)
        wall_start, wall_end = wall.as_arrays()
        if not (self.footprint.contains(wall_start)
                and self.footprint.contains(wall_end)):
            raise DatasetError("wall extends outside the room")
        self.walls.append(wall)
        return wall

    def step_crosses_wall(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether the segment a->b passes through any wall."""
        return bool(self._crossing_mask(np.array([a, b], dtype=float))[0])

    def _crossing_mask(self, points: np.ndarray) -> np.ndarray:
        """Which steps of a ``(T, 2)`` point array cross any wall."""
        starts, ends = points[:-1], points[1:]
        crossing = np.zeros(starts.shape[0], dtype=bool)
        for wall in self.walls:
            crossing |= _segments_intersect(starts, ends, *wall.as_arrays())
        return crossing

    def crossing_steps(self, trajectory: Trajectory) -> np.ndarray:
        """Indices of trajectory steps that cross a wall."""
        return np.flatnonzero(self._crossing_mask(trajectory.points))

    def is_admissible(self, trajectory: Trajectory, *,
                      margin: float = 0.0) -> bool:
        """Trajectory stays inside the footprint and crosses no wall."""
        if not self.footprint.contains_all(trajectory.points, margin=margin):
            return False
        return self.crossing_steps(trajectory).size == 0


def count_wall_crossings(trajectory: Trajectory, plan: FloorPlan) -> int:
    """Number of steps that walk through a wall — Sec. 8's giveaway metric."""
    return int(plan.crossing_steps(trajectory).size)


class FloorPlanConstraint:
    """Makes trajectories respect a floor plan.

    Two mechanisms, applied in order:

    - *repair*: project wall-crossing steps to stop short of the wall
      (sliding the offending points back toward the previous point), then
      re-check — fixes glancing crossings without changing the shape much;
    - *reject*: if repair cannot fix the trajectory within the iteration
      budget, report it as inadmissible so the caller redraws.

    This is the post-hoc variant of the paper's proposed cGAN loss-term
    approach: source-agnostic, so it also guards simulator and baseline
    trajectories.
    """

    def __init__(self, plan: FloorPlan, *, margin: float = 0.05,
                 max_repair_iterations: int = 8) -> None:
        if margin < 0:
            raise DatasetError("margin must be >= 0")
        if max_repair_iterations < 1:
            raise DatasetError("max_repair_iterations must be >= 1")
        self.plan = plan
        self.margin = margin
        self.max_repair_iterations = max_repair_iterations

    def repair(self, trajectory: Trajectory) -> Trajectory | None:
        """Return an admissible version of ``trajectory``, or ``None``.

        Offending points are pulled back toward their predecessor until the
        step no longer crosses (fixes glancing contacts); a trajectory that
        genuinely continues deep past a wall instead gets the stop-at-wall
        treatment — the ghost halts at the obstacle, exactly what a real
        person would do. Returns ``None`` only when even that fails.
        """
        points = self.plan.footprint.clamp_all(trajectory.points, self.margin)
        for _ in range(self.max_repair_iterations):
            crossings = np.flatnonzero(self.plan._crossing_mask(points))
            if crossings.size == 0:
                return trajectory.replace(points=points)
            for index in crossings:
                # Pull the far end of the crossing step halfway back.
                points[index + 1] = 0.5 * (points[index + 1] + points[index])

        # Fallback: stop at the wall. Freeze everything after the first
        # crossing at the last admissible position. The frozen steps have
        # zero length, so the step-by-step scan this replaces could only
        # re-freeze them at the same point.
        points = self.plan.footprint.clamp_all(trajectory.points, self.margin)
        crossings = np.flatnonzero(self.plan._crossing_mask(points))
        if crossings.size:
            points[crossings[0] + 1:] = points[crossings[0]]
        candidate = trajectory.replace(points=points)
        if self.plan.is_admissible(candidate, margin=0.0):
            return candidate
        return None

    def filter(self, trajectories: Sequence[Trajectory]
               ) -> tuple[list[Trajectory], int]:
        """Repair every trajectory; drop the unrepairable.

        Returns ``(admissible_trajectories, num_rejected)``.
        """
        admissible: list[Trajectory] = []
        rejected = 0
        for trajectory in trajectories:
            if self.plan.is_admissible(trajectory, margin=self.margin):
                admissible.append(trajectory)
                continue
            repaired = self.repair(trajectory)
            if repaired is None:
                rejected += 1
            else:
                admissible.append(repaired)
        return admissible, rejected
