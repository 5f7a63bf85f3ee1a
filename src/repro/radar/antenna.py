"""Uniform linear array geometry and the Eq. 2 beamforming planes.

The paper's eavesdropper computes the per-angle power

    P(theta) = | sum_k h_k * exp(-j 2 pi k d cos(theta) / lambda) |^2

where ``theta`` is measured from the array axis. This module owns that
convention: angle-from-axis in (0, pi), with the boresight ("facing")
direction resolving the front/back ambiguity when converting to Cartesian.
The receive pipeline evaluates Eq. 2 in its lag-domain form
(:meth:`UniformLinearArray.lag_power_basis`); the direct steering-matrix
form is the test oracle it is pinned to (``tests/receive_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry import unit_vector
from repro.radar.config import RadarConfig
from repro.signal.windows import get_window

__all__ = ["UniformLinearArray"]

#: Normalized taper weights per (element count, window name) — tiny arrays,
#: but resolving them through the memo keeps every call site sharing one
#: read-only plane instead of re-deriving the normalization.
_WEIGHTS_CACHE: dict[tuple[int, str], np.ndarray] = {}

#: Lag-basis planes of the autocorrelation form of Eq. 2 (see
#: ``repro.radar.pipeline``), one ``(2K - 1, num_angles)`` array per
#: (geometry, grid).
_LAG_BASIS_CACHE: dict[tuple[int, float, float, bytes], np.ndarray] = {}


class UniformLinearArray:
    """Receive-array geometry, angle conventions, and Eq. 2 planes."""

    def __init__(self, config: RadarConfig) -> None:
        self.config = config
        self.position = np.asarray(config.position, dtype=float)
        self.axis = unit_vector(config.axis_angle)
        self.facing = unit_vector(config.facing_angle)
        # Unit vector perpendicular to the axis, signed toward the facing
        # side (RadarConfig rejects a facing parallel to the axis).
        perp = self.facing - (self.facing @ self.axis) * self.axis
        self._perp = perp / np.linalg.norm(perp)
        self.num_antennas = config.num_antennas
        self.spacing = config.spacing
        self.wavelength = config.chirp.wavelength

    def element_positions(self) -> np.ndarray:
        """Element (x, y) positions, shape ``(K, 2)``, centered on the array."""
        offsets = (np.arange(self.num_antennas) - (self.num_antennas - 1) / 2.0)
        return self.position + np.outer(offsets * self.spacing, self.axis)

    def angle_to(self, point: np.ndarray) -> float:
        """Angle from the array axis to ``point``, in (0, pi)."""
        rel = np.asarray(point, dtype=float) - self.position
        distance = np.linalg.norm(rel)
        if distance == 0:
            raise ConfigurationError("point coincides with the array center")
        cos_theta = float(np.clip(rel @ self.axis / distance, -1.0, 1.0))
        return float(np.arccos(cos_theta))

    def range_to(self, point: np.ndarray) -> float:
        """Distance from the array center to ``point``, meters."""
        return float(np.linalg.norm(np.asarray(point, dtype=float) - self.position))

    def polar_of(self, point: np.ndarray) -> tuple[float, float]:
        """(range, angle-from-axis) of ``point`` in this array's frame."""
        return self.range_to(point), self.angle_to(point)

    def point_at(self, distance: float, angle: float) -> np.ndarray:
        """Cartesian point at (``distance``, ``angle``), on the facing side.

        The array angle only determines ``cos(theta)``; the boresight
        direction picks which of the two mirror solutions is "in the room".
        """
        if distance < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance}")
        along_axis = np.cos(angle)
        off_axis = np.sin(angle)
        return self.position + distance * (along_axis * self.axis
                                           + off_axis * self._perp)

    def arrival_phases(self, angle: float) -> np.ndarray:
        """Relative phase of an incoming wave at each element, shape ``(K,)``.

        Element ``k`` sits at offset ``k * d`` along the axis (up to the
        common centering shift, which is an overall phase); a wave from
        ``angle`` arrives with phase ``+2 pi k d cos(angle) / lambda``.
        """
        k = np.arange(self.num_antennas)
        return 2.0 * np.pi * k * self.spacing * np.cos(angle) / self.wavelength

    def arrival_phase_matrix(self, angles: np.ndarray) -> np.ndarray:
        """Per-antenna arrival phases for a *batch* of angles, ``(K, C)``.

        Column ``c`` equals :meth:`arrival_phases` evaluated at
        ``angles[c]``; computing all columns at once is what lets the
        vectorized frontend (`repro.radar.batch`) synthesize every path
        component of a frame in a single broadcasted expression.
        """
        grid = np.atleast_1d(np.asarray(angles, dtype=float))
        k = np.arange(self.num_antennas)
        return (2.0 * np.pi * np.outer(k, np.cos(grid))
                * self.spacing / self.wavelength)

    def taper_weights(self, taper: str | None) -> np.ndarray:
        """Normalized amplitude taper across the elements, shape ``(K,)``.

        The window is scaled to preserve total gain (``sum == K``). Since
        the taper is real, applying it to the *signals* instead of the
        steering vectors yields the same per-term products — which is how
        the batched pipeline uses it. Read-only cached plane.
        """
        if taper is None:
            weights = np.ones(self.num_antennas, dtype=float)
            weights.flags.writeable = False
            return weights
        key = (self.num_antennas, taper)
        cached = _WEIGHTS_CACHE.get(key)
        if cached is None:
            window = get_window(taper, self.num_antennas)
            cached = window / window.sum() * self.num_antennas
            cached.flags.writeable = False
            _WEIGHTS_CACHE[key] = cached
        return cached

    def lag_power_basis(self, angles: np.ndarray) -> np.ndarray:
        """Basis turning autocorrelation lags into Eq. 2 power, ``(2K-1, A)``.

        The element-``k`` steering phase is ``k * c(theta)`` with
        ``c = 2 pi d cos(theta) / lambda`` — linear in ``k`` — so Eq. 2's
        power depends on antenna pairs only through their index *lag*
        ``m = k - l``:

            P(theta) = R_0 + 2 sum_m [Re R_m cos(m c) + Im R_m sin(m c)]

        where ``R_m`` is the lag-``m`` spatial autocorrelation of the
        tapered signals. This method returns that expansion as a single
        matrix: row 0 is all ones (the ``R_0`` term), rows ``1 .. K-1``
        hold ``2 cos(m c)`` and rows ``K .. 2K-2`` hold ``2 sin(m c)``, so
        stacking ``[R_0 | Re R | Im R]`` per bin and multiplying by this
        basis yields the power map in one real GEMM (see
        :func:`repro.radar.pipeline.beamform_from_lags_stacked`). Computed
        once per (geometry, grid), returned read-only.
        """
        grid = np.asarray(angles, dtype=float)
        key = (self.num_antennas, self.spacing, self.wavelength,
               grid.tobytes())
        cached = _LAG_BASIS_CACHE.get(key)
        if cached is None:
            lags = np.arange(1, self.num_antennas)
            phase = (2.0 * np.pi * np.outer(lags, np.cos(grid))
                     * self.spacing / self.wavelength)
            cached = np.concatenate([
                np.ones((1, grid.shape[0]), dtype=np.float64),
                2.0 * np.cos(phase),
                2.0 * np.sin(phase),
            ])
            cached.flags.writeable = False
            _LAG_BASIS_CACHE[key] = cached
        return cached
