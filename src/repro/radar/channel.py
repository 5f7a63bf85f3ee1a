"""Propagation channel: path amplitudes and multipath.

Amplitudes follow the monostatic radar equation shape: received amplitude is
proportional to ``sqrt(rcs) / distance^2`` (power falls as the fourth power
of range). Environments add dynamic multipath — delayed, attenuated copies
of moving reflections bouncing off walls and furniture — which is the effect
the paper blames for the office's larger localization errors (Sec. 11.1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ChannelModel", "MultipathSpec"]


@dataclasses.dataclass(frozen=True)
class MultipathSpec:
    """Statistical description of an environment's dynamic multipath.

    Attributes:
        mean_paths: average number of secondary bounces per moving reflector.
        excess_distance_mean: mean extra path length of a bounce, meters.
        excess_distance_std: spread of the extra path length, meters.
        relative_amplitude: amplitude of a bounce relative to its direct path.
        angle_spread: std-dev of the bounce's angular offset, radians.
    """

    mean_paths: float = 1.0
    excess_distance_mean: float = 0.5
    excess_distance_std: float = 0.35
    relative_amplitude: float = 0.25
    angle_spread: float = 0.15

    def __post_init__(self) -> None:
        if self.mean_paths < 0:
            raise ConfigurationError("mean_paths must be >= 0")
        if self.excess_distance_mean <= 0 or self.excess_distance_std < 0:
            raise ConfigurationError("excess distance parameters must be positive")
        if not 0 <= self.relative_amplitude < 1:
            raise ConfigurationError("relative_amplitude must be in [0, 1)")
        if self.angle_spread < 0:
            raise ConfigurationError("angle_spread must be >= 0")


class ChannelModel:
    """Amplitude and multipath generation for the frontend."""

    def __init__(self, *, reference_amplitude: float = 1.0,
                 reference_distance: float = 1.0,
                 multipath: MultipathSpec | None = None) -> None:
        """Create a channel.

        Args:
            reference_amplitude: received amplitude of a unit-RCS reflector
                at ``reference_distance`` (sets the absolute signal scale).
            reference_distance: calibration distance in meters.
            multipath: dynamic multipath statistics; ``None`` disables it.
        """
        if reference_amplitude <= 0 or reference_distance <= 0:
            raise ConfigurationError("reference amplitude/distance must be positive")
        self.reference_amplitude = reference_amplitude
        self.reference_distance = reference_distance
        self.multipath = multipath

    def path_amplitude(self, distance: float | np.ndarray,
                       rcs: float | np.ndarray = 1.0) -> float | np.ndarray:
        """Received amplitude of a reflector at ``distance`` with ``rcs``.

        The square goes through ``float_power`` (libm ``pow``), so a row of
        distances gets exactly the per-row scalar result — ``d ** 2`` on a
        float64 array rounds differently from a scalar in the last ulp.
        """
        d = np.maximum(np.asarray(distance, dtype=float), 1e-3)
        scale = self.reference_amplitude * self.reference_distance ** 2
        return (scale * np.sqrt(np.asarray(rcs, dtype=float))
                / np.float_power(d, 2.0))

    def draw_bounces(self, rng: np.random.Generator,
                     out: list[float]) -> int:
        """Draw one path's secondary bounces, in generator order.

        The bounce count is Poisson with the configured mean; each bounce
        then draws its excess distance, angular offset and amplitude
        factor, appended to ``out`` in that order. Returns the count (0,
        drawing nothing, when multipath is disabled).
        """
        spec = self.multipath
        if spec is None or spec.mean_paths == 0:
            return 0
        count = int(rng.poisson(spec.mean_paths))
        for _ in range(count):
            out.append(rng.normal(spec.excess_distance_mean,
                                  spec.excess_distance_std))
            out.append(rng.normal(0.0, spec.angle_spread))
            out.append(rng.uniform(0.5, 1.0))
        return count

    def bounce_paths(self, distance: float | np.ndarray,
                     angle: float | np.ndarray,
                     amplitude: float | np.ndarray, draws: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(distance, angle, amplitude) of bounces from their raw draws.

        ``draws`` is ``(B, 3)`` as :meth:`draw_bounces` appends them; the
        source path's values broadcast against it. A bounce adds its
        excess distance and a small angular offset, at reduced amplitude.
        """
        if self.multipath is None:
            raise ConfigurationError("channel has no multipath")
        return (distance + np.abs(draws[:, 0]),
                np.clip(angle + draws[:, 1], 1e-3, np.pi - 1e-3),
                amplitude * self.multipath.relative_amplitude * draws[:, 2])
