"""Core value types shared across the library.

The central type is :class:`Trajectory`, a uniformly-sampled sequence of 2-D
positions. Every subsystem (motion simulator, GAN, reflector controller,
radar tracker, metrics) speaks this type, so conversions live here rather
than being re-derived ad hoc at call sites.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PolarPoint", "Trajectory", "as_points_array", "memoized_rows",
           "motion_ranges", "point_set_diameters"]

#: Float64 values per temporary of a stacked pass (64 KiB): scratch memory
#: stays bounded whatever the set size or ``T``, and blocks stay in cache.
_BLOCK_VALUES = 1 << 13


def as_points_array(points: Sequence | np.ndarray) -> np.ndarray:
    """Coerce ``points`` into a float ``(T, 2)`` array.

    Raises :class:`ConfigurationError` when the input cannot be interpreted
    as a sequence of 2-D points or when it contains non-finite values.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError(
            f"expected an (T, 2) array of 2-D points, got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise ConfigurationError("trajectory must contain at least one point")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("trajectory points must be finite")
    return arr


@dataclasses.dataclass(frozen=True)
class PolarPoint:
    """A point in polar coordinates relative to some origin.

    ``radius`` is in meters; ``angle`` is in radians, measured
    counter-clockwise from the +x axis.
    """

    radius: float
    angle: float

    def to_cartesian(self, origin: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
        """Return the (x, y) position of this polar point."""
        ox, oy = origin
        return np.array(
            [ox + self.radius * math.cos(self.angle),
             oy + self.radius * math.sin(self.angle)]
        )


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """A uniformly-sampled 2-D trajectory, immutable down to its points.

    The trajectory holds its own read-only copy of the points, so analytics
    derived from ``(points, dt)`` — the diameter, the kinematic feature
    row — are memoized on it (see :func:`memoized_rows`).

    Attributes:
        points: ``(T, 2)`` float array of (x, y) positions in meters.
        dt: sampling interval in seconds between consecutive points.
        label: optional range-of-motion class label (Sec. 6 of the paper).
    """

    points: np.ndarray
    dt: float
    label: int | None = None
    _memo: dict[str, Any] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owner = as_points_array(self.points).copy()
        owner.flags.writeable = False
        # A view of a read-only owner cannot be made writeable again.
        object.__setattr__(self, "points", owner.view())
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")

    def __reduce__(self) -> tuple[Any, ...]:
        # Rebuild through the constructor: an unpickled array is writeable.
        return (Trajectory, (self.points, self.dt, self.label))

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.points)

    @property
    def duration(self) -> float:
        """Total time spanned by the trajectory in seconds."""
        return (len(self) - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        """Sample times, starting at zero."""
        return np.arange(len(self)) * self.dt

    def displacements(self) -> np.ndarray:
        """Per-step displacement vectors, shape ``(T-1, 2)``."""
        return np.diff(self.points, axis=0)

    def step_lengths(self) -> np.ndarray:
        """Per-step Euclidean step lengths, shape ``(T-1,)``."""
        return np.linalg.norm(self.displacements(), axis=1)

    def path_length(self) -> float:
        """Total arc length of the trajectory in meters."""
        return float(self.step_lengths().sum())

    def speeds(self) -> np.ndarray:
        """Per-step speeds in m/s, shape ``(T-1,)``."""
        return self.step_lengths() / self.dt

    def headings(self) -> np.ndarray:
        """Per-step headings in radians, shape ``(T-1,)``."""
        d = self.displacements()
        return np.arctan2(d[:, 1], d[:, 0])

    def turning_angles(self) -> np.ndarray:
        """Signed turning angles between consecutive steps, wrapped to [-pi, pi]."""
        h = self.headings()
        raw = np.diff(h)
        return (raw + np.pi) % (2.0 * np.pi) - np.pi

    def motion_range(self) -> float:
        """The trajectory's diameter: largest distance between two points.

        This is the "range of motion" the paper classifies traces by
        (Sec. 6); unlike a bounding-box measure it is rotation invariant.
        Computed once, then memoized.
        """
        return float(motion_ranges([self])[0])

    def centroid(self) -> np.ndarray:
        """Mean position, shape ``(2,)``."""
        return self.points.mean(axis=0)

    def centered(self) -> "Trajectory":
        """Return a copy translated so the centroid is at the origin."""
        return self.replace(points=self.points - self.centroid())

    def translated(self, offset: Sequence[float]) -> "Trajectory":
        """Return a copy translated by ``offset`` = (dx, dy)."""
        off = np.asarray(offset, dtype=float)
        if off.shape != (2,):
            raise ConfigurationError(f"offset must have shape (2,), got {off.shape}")
        return self.replace(points=self.points + off)

    def rotated(self, angle: float, about: Sequence[float] = (0.0, 0.0)) -> "Trajectory":
        """Return a copy rotated by ``angle`` radians about ``about``."""
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        pivot = np.asarray(about, dtype=float)
        return self.replace(points=(self.points - pivot) @ rot.T + pivot)

    def scaled(self, factor: float) -> "Trajectory":
        """Return a copy scaled about the origin by ``factor``."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return self.replace(points=self.points * factor)

    def resampled(self, num_points: int) -> "Trajectory":
        """Return a copy resampled to ``num_points`` via linear interpolation."""
        if num_points < 2:
            raise ConfigurationError("resampling needs at least 2 points")
        old_t = self.times
        new_t = np.linspace(old_t[0], old_t[-1], num_points)
        new_dt = self.duration / (num_points - 1) if self.duration > 0 else self.dt
        xs = np.interp(new_t, old_t, self.points[:, 0])
        ys = np.interp(new_t, old_t, self.points[:, 1])
        return Trajectory(np.column_stack([xs, ys]), dt=new_dt, label=self.label)

    def to_polar(self, origin: Sequence[float] = (0.0, 0.0)) -> list[PolarPoint]:
        """Convert to polar coordinates relative to ``origin``."""
        ox, oy = (float(v) for v in origin)
        rel = self.points - np.array([ox, oy])
        radii = np.hypot(rel[:, 0], rel[:, 1])
        angles = np.arctan2(rel[:, 1], rel[:, 0])
        return [PolarPoint(float(r), float(a)) for r, a in zip(radii, angles)]

    def position_at(self, t: float) -> np.ndarray:
        """Linearly interpolated position at time ``t`` (clamped to the span)."""
        t = min(max(t, 0.0), self.duration)
        x = np.interp(t, self.times, self.points[:, 0])
        y = np.interp(t, self.times, self.points[:, 1])
        return np.array([x, y])

    def replace(self, **changes) -> "Trajectory":
        """Return a copy with the given fields replaced.

        A copy with the same points and ``dt`` (a relabelling) keeps the
        memoized analytics, which depend on nothing else.
        """
        clone = dataclasses.replace(self, **changes)
        if "points" not in changes and "dt" not in changes:
            clone._memo.update(self._memo)
        return clone

    @staticmethod
    def from_polar(points: Sequence[PolarPoint], dt: float,
                   origin: Sequence[float] = (0.0, 0.0),
                   label: int | None = None) -> "Trajectory":
        """Build a trajectory from polar points around ``origin``."""
        cart = np.array([p.to_cartesian(tuple(origin)) for p in points])
        return Trajectory(cart, dt=dt, label=label)


def point_set_diameters(points: np.ndarray) -> np.ndarray:
    """Largest pairwise distance within each set of an ``(n, T, 2)`` stack.

    Takes the square root of the largest squared distance, which equals
    the largest distance bit for bit (IEEE ``sqrt`` is correctly rounded
    and monotone). Squared distances are formed over the upper triangle
    in blocks of at most ``_BLOCK_VALUES`` values, so the temporaries
    stay small whatever ``T`` is.
    """
    count, length = points.shape[:2]
    xs, ys = points[..., 0], points[..., 1]
    sets = max(1, min(count, _BLOCK_VALUES // (length * length)))
    rows = max(1, min(length, _BLOCK_VALUES // (sets * length)))
    best = np.zeros(count)
    for first in range(0, count, sets):
        chunk = slice(first, first + sets)
        x, y = xs[chunk], ys[chunk]
        for start in range(0, length, rows):
            dx = x[:, start:start + rows, None] - x[:, None, start:]
            dy = y[:, start:start + rows, None] - y[:, None, start:]
            dx *= dx
            dy *= dy
            dx += dy
            np.maximum(best[chunk], dx.max(axis=(1, 2)), out=best[chunk])
    return np.sqrt(best)


def memoized_rows(trajectories: Sequence[Trajectory], key: str,
                  kernel: Callable[[list[Trajectory]], np.ndarray],
                  ) -> np.ndarray:
    """A per-trajectory analytic over a set, computed at most once each.

    Trajectories that do not yet hold a value under ``key`` are grouped by
    ``(T, dt)``; ``kernel`` maps a pass of one group's members to their
    stacked values (one row per member, in order), which are stored
    read-only on the members. A pass takes as many members as keep its
    stacked points within ``_BLOCK_VALUES`` coordinates. Duplicates in
    ``trajectories`` are computed once. Returns the values of all
    trajectories stacked in input order.
    """
    groups: dict[tuple[int, float], dict[int, Trajectory]] = {}
    for trajectory in trajectories:
        if key not in trajectory._memo:
            group = groups.setdefault((len(trajectory), trajectory.dt), {})
            group[id(trajectory)] = trajectory
    for (length, _), group in groups.items():
        pending = list(group.values())
        per_pass = max(1, _BLOCK_VALUES // (2 * length))
        for first in range(0, len(pending), per_pass):
            members = pending[first:first + per_pass]
            values = kernel(members)
            values.flags.writeable = False
            for trajectory, value in zip(members, values):
                trajectory._memo[key] = value
    return np.stack([trajectory._memo[key] for trajectory in trajectories])


def _diameter_kernel(group: list[Trajectory]) -> np.ndarray:
    return point_set_diameters(np.stack([t.points for t in group]))


def motion_ranges(trajectories: Sequence[Trajectory]) -> np.ndarray:
    """Diameters of a set of trajectories (see :meth:`Trajectory.motion_range`).

    Only the unmemoized ones are computed, in stacked passes.
    """
    return memoized_rows(trajectories, "diameter", _diameter_kernel)
