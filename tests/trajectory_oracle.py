"""Per-trajectory kinematics oracle: the historical bodies, one trajectory at a time.

Production computes trajectory analytics over stacked ``(n, T, 2)`` arrays,
at most once per trajectory (:func:`repro.metrics.fid.feature_matrix`,
:func:`repro.types.motion_ranges`, and the wall scan in
:mod:`repro.trajectories.floorplan`). This module keeps the code those
replaced — the 12-feature embedding built from 1-D numpy calls, the full
``(T, T)`` pairwise diameter, and the scalar segment test run step by
step — so the property suites can pin the batch kernels to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.trajectories.floorplan import FloorPlan
from repro.types import Trajectory


def motion_range(points: np.ndarray) -> float:
    """Largest pairwise distance: square root of every pair, then the max."""
    diffs = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def turning_angles(points: np.ndarray) -> np.ndarray:
    """Signed turning angles between consecutive steps, wrapped to [-pi, pi]."""
    d = np.diff(points, axis=0)
    h = np.arctan2(d[:, 1], d[:, 0])
    raw = np.diff(h)
    return (raw + np.pi) % (2.0 * np.pi) - np.pi


def trajectory_features(trajectory: Trajectory) -> np.ndarray:
    """The 12-dim kinematic embedding of one trajectory."""
    points = np.array(trajectory.points)
    steps = np.diff(points, axis=0)
    if steps.shape[0] < 4:
        raise ConfigurationError("feature extraction needs >= 5 points")
    lengths = np.linalg.norm(steps, axis=1)
    speeds = lengths / trajectory.dt
    turning = turning_angles(points)
    path = float(lengths.sum())
    net = float(np.linalg.norm(points[-1] - points[0]))
    straightness = net / path if path > 1e-9 else 0.0

    def step_autocorrelation(lag: int) -> float:
        a = steps[:-lag].reshape(-1)
        b = steps[lag:].reshape(-1)
        denom = float(np.linalg.norm(a) * np.linalg.norm(b))
        if denom < 1e-12:
            return 0.0
        return float(a @ b / denom)

    stationary_fraction = float(np.mean(lengths < 0.02))
    return np.array([
        float(lengths.mean()),
        float(lengths.std()),
        float(lengths.max()),
        float(speeds.std()),
        float(np.abs(turning).mean()),
        float(turning.std()),
        motion_range(points),
        path,
        straightness,
        step_autocorrelation(1),
        step_autocorrelation(3),
        stationary_fraction,
    ])


def segments_intersect(p1: np.ndarray, p2: np.ndarray,
                       q1: np.ndarray, q2: np.ndarray) -> bool:
    """Proper segment intersection via orientation tests (collinear-safe)."""

    def orientation(a, b, c) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c) -> bool:
        return (min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
                and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12)

    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)

    if ((o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0)
            and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0):
        return True
    # Collinear touching cases.
    if o1 == 0 and on_segment(p1, p2, q1):
        return True
    if o2 == 0 and on_segment(p1, p2, q2):
        return True
    if o3 == 0 and on_segment(q1, q2, p1):
        return True
    if o4 == 0 and on_segment(q1, q2, p2):
        return True
    return False


def crossing_steps(plan: FloorPlan, points: np.ndarray) -> list[int]:
    """Indices of steps crossing any wall, one step and one wall at a time."""
    return [
        i for i in range(points.shape[0] - 1)
        if any(segments_intersect(points[i], points[i + 1], *wall.as_arrays())
               for wall in plan.walls)
    ]


def repair(plan: FloorPlan, trajectory: Trajectory, *, margin: float,
           max_repair_iterations: int) -> np.ndarray | None:
    """``FloorPlanConstraint.repair``'s point updates with the scalar scan."""
    points = plan.footprint.clamp_all(trajectory.points, margin)
    for _ in range(max_repair_iterations):
        crossings = crossing_steps(plan, points)
        if not crossings:
            return points
        for index in crossings:
            points[index + 1] = 0.5 * (points[index + 1] + points[index])
    points = plan.footprint.clamp_all(trajectory.points, margin)
    for index in range(points.shape[0] - 1):
        if any(segments_intersect(points[index], points[index + 1],
                                  *wall.as_arrays()) for wall in plan.walls):
            points[index + 1:] = points[index]
    if (plan.footprint.contains_all(points)
            and not crossing_steps(plan, points)):
        return points
    return None


def rater_judgements(reference: list[Trajectory], shown: list[Trajectory], *,
                     judgement_noise: float,
                     rng: np.random.Generator) -> tuple[float, list[bool]]:
    """Table 1's rater, scoring one trajectory at a time.

    Builds the rater on ``reference`` as ``RaterModel`` did before it read
    feature matrices — every reference trajectory featurized twice, one
    scalar noise draw per reference score — then judges ``shown`` in order.
    Returns the rater's threshold and its judgements.
    """
    salient_index = [1, 2, 4, 8, 11]
    features = np.vstack([trajectory_features(t) for t in reference])
    salient = features[:, salient_index]
    mean = salient.mean(axis=0)
    std = salient.std(axis=0) + 1e-9

    def implausibility(trajectory: Trajectory) -> float:
        z = np.abs(trajectory_features(trajectory)[salient_index] - mean) / std
        return float(z.mean())

    scores = np.array([implausibility(t) + rng.normal(0.0, judgement_noise)
                       for t in reference])
    threshold = float(np.quantile(scores, 0.58) + rng.normal(0.0, 0.2))
    return threshold, [
        implausibility(t) + rng.normal(0.0, judgement_noise) <= threshold
        for t in shown]
