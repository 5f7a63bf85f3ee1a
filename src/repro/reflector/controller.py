"""Trajectory -> switching-schedule compilation (Sec. 5.3).

Given a ghost trajectory, the controller converts each point to polar
coordinates around the tag's *nominal* radar position (the tag never learns
the true one), picks the panel antenna nearest the required bearing, and
computes the switching frequency that places the ghost at the required
distance along that antenna's ray (Eq. 3). The output is a time-indexed
:class:`SpoofSchedule` the Raspberry-Pi-class MCU of Fig. 5 could execute.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import ReflectorError
from repro.reflector.breathing import BreathingWaveform
from repro.reflector.panel import ReflectorPanel
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory

__all__ = ["CommandTimeline", "ReflectorController", "SpoofCommand",
           "SpoofSchedule"]


@dataclasses.dataclass(frozen=True)
class SpoofCommand:
    """One MCU command interval.

    Attributes:
        time: activation time of this command, seconds.
        antenna_index: panel antenna selected by the SP8T switch.
        switch_frequency: on/off modulation frequency, Hz.
        phase_shift: commanded phase-shifter value, radians.
        ghost_position: the (x, y) the ghost is intended to appear at —
            carried for the side-channel report, never transmitted over RF.
        amplitude_scale: commanded attenuator setting, relative to the
            chain's nominal gain. Used for RCS mimicry (Sec. 8): varying
            the reflected power frame-to-frame like a posture-shifting
            human defeats radar-cross-section fingerprinting.
    """

    time: float
    antenna_index: int
    switch_frequency: float
    phase_shift: float
    ghost_position: tuple[float, float]
    amplitude_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.switch_frequency < 0:
            raise ReflectorError("switch frequency must be >= 0")
        if self.amplitude_scale <= 0:
            raise ReflectorError("amplitude_scale must be positive")


class CommandTimeline:
    """Time lookup shared by command schedules (FMCW and delay-line).

    Subclasses hold ``commands`` sorted by ``time`` and a positive
    ``command_interval``; a schedule is not mutated after construction, so
    the command times and per-field arrays are cached on first use.
    """

    commands: list[Any]
    command_interval: float

    def __len__(self) -> int:
        return len(self.commands)

    @property
    def start_time(self) -> float:
        return float(self.commands[0].time)

    @property
    def end_time(self) -> float:
        """Time the last command stops being executed."""
        return float(self.commands[-1].time + self.command_interval)

    @functools.cached_property
    def _fields(self) -> dict[str, np.ndarray]:
        return {}

    def command_field(self, name: str) -> np.ndarray:
        """Attribute ``name`` of every command as a read-only array."""
        values = self._fields.get(name)
        if values is None:
            values = np.array([getattr(c, name) for c in self.commands])
            values.flags.writeable = False
            self._fields[name] = values
        return values

    def command_indices(self, times: np.ndarray) -> np.ndarray:
        """Index of the command active at each of ``times``; -1 outside.

        One ``searchsorted`` over the cached command times serves a whole
        frame grid.
        """
        times = np.asarray(times, dtype=float)
        index = np.searchsorted(self.command_field("time"), times,
                                side="right") - 1
        outside = (times < self.start_time) | (times >= self.end_time)
        return np.where(outside, -1, np.maximum(index, 0))

    def command_at(self, t: float) -> Any:
        """The command active at time ``t``, or ``None`` outside the schedule."""
        index = int(self.command_indices(np.array([t]))[0])
        return None if index < 0 else self.commands[index]


class SpoofSchedule(CommandTimeline):
    """A time-ordered sequence of spoofing commands for one ghost."""

    def __init__(self, commands: Sequence[SpoofCommand], *,
                 command_interval: float) -> None:
        if not commands:
            raise ReflectorError("a schedule needs at least one command")
        if command_interval <= 0:
            raise ReflectorError("command interval must be positive")
        ordered = sorted(commands, key=lambda c: c.time)
        times = [c.time for c in ordered]
        if any(b - a <= 0 for a, b in zip(times, times[1:])):
            raise ReflectorError("command times must be strictly increasing")
        self.commands: list[SpoofCommand] = list(ordered)
        self.command_interval = float(command_interval)

    def __iter__(self):
        return iter(self.commands)

    def intended_trajectory(self, label: int | None = None) -> Trajectory:
        """The ghost positions this schedule encodes, as a trajectory."""
        points = np.array([c.ghost_position for c in self.commands])
        if points.shape[0] == 1:
            points = np.vstack([points, points])
        return Trajectory(points, dt=self.command_interval, label=label)

    def switch_frequencies(self) -> np.ndarray:
        """Per-command switching frequencies, Hz."""
        return self.command_field("switch_frequency").copy()


class ReflectorController:
    """Compiles ghost trajectories into reflector switching schedules.

    Args:
        panel: the antenna panel being driven.
        chirp: the radar chirp the tag is calibrated for. The paper notes
            the slope is constrained to a narrow practical range and is
            public for commercial sensors (Sec. 5.1); a mis-assumed slope
            only rescales the spoofed distances.
        radar_position: nominal eavesdropper location; defaults to the
            panel's standard wall-deployment assumption.
        command_rate: MCU command updates per second. Tens of milliseconds
            of control granularity suffice (Sec. 5.2).
        min_distance_offset: smallest spoofable extra distance, meters.
            Switching near DC would be removed as a static reflection, and
            small offsets put the -1 mirror line inside the radar's visible
            range (it sits at ``path_to_antenna - offset``), so ghosts must
            sit at least this far beyond the panel.
        frame_coherent_rate: when set, switching frequencies are rounded to
            multiples of this rate (the radar's frame rate) so the switching
            oscillator phase realigns every frame — required for coherent
            phase observables like spoofed breathing. The rounding error in
            distance is sub-millimeter for typical slopes.
        rcs_variation: relative std-dev of the per-command amplitude jitter
            mimicking human RCS fluctuation (Sec. 8's future-work item).
            0 disables mimicry (constant reflected power).
    """

    def __init__(self, panel: ReflectorPanel, chirp: ChirpConfig, *,
                 radar_position: np.ndarray | None = None,
                 command_rate: float = 10.0,
                 min_distance_offset: float = 0.8,
                 frame_coherent_rate: float | None = None,
                 rcs_variation: float = 0.0) -> None:
        if command_rate <= 0:
            raise ReflectorError("command_rate must be positive")
        if min_distance_offset <= 0:
            raise ReflectorError("min_distance_offset must be positive")
        if frame_coherent_rate is not None and frame_coherent_rate <= 0:
            raise ReflectorError("frame_coherent_rate must be positive")
        if not 0 <= rcs_variation < 1:
            raise ReflectorError("rcs_variation must be in [0, 1)")
        self.rcs_variation = rcs_variation
        self.panel = panel
        self.chirp = chirp
        if radar_position is None:
            radar_position = panel.default_radar_position()
        self.radar_position = np.asarray(radar_position, dtype=float)
        self.command_rate = float(command_rate)
        self.min_distance_offset = float(min_distance_offset)
        self.frame_coherent_rate = frame_coherent_rate

    @property
    def command_interval(self) -> float:
        return 1.0 / self.command_rate

    def _switch_frequency_for(self, ghost: np.ndarray, antenna_index: int) -> float:
        antenna = self.panel.antenna_position(antenna_index)
        path_to_antenna = float(np.linalg.norm(antenna - self.radar_position))
        ghost_range = float(np.linalg.norm(ghost - self.radar_position))
        offset = ghost_range - path_to_antenna
        if offset < self.min_distance_offset:
            raise ReflectorError(
                f"ghost at {tuple(np.round(ghost, 2))} is only {offset:.2f} m beyond "
                f"the panel; minimum spoofable offset is {self.min_distance_offset} m"
            )
        frequency = float(self.chirp.switch_frequency_for_offset(offset))
        if self.frame_coherent_rate is not None:
            frequency = round(frequency / self.frame_coherent_rate) * self.frame_coherent_rate
        return frequency

    def command_for_point(self, ghost: np.ndarray, time: float, *,
                          phase_shift: float = 0.0,
                          amplitude_scale: float = 1.0) -> SpoofCommand:
        """Compile a single ghost position into one command."""
        ghost = np.asarray(ghost, dtype=float)
        rel = ghost - self.radar_position
        bearing = float(np.arctan2(rel[1], rel[0]))
        antenna_index = self.panel.nearest_antenna(bearing, self.radar_position)
        frequency = self._switch_frequency_for(ghost, antenna_index)
        return SpoofCommand(
            time=time,
            antenna_index=antenna_index,
            switch_frequency=frequency,
            phase_shift=phase_shift,
            ghost_position=(float(ghost[0]), float(ghost[1])),
            amplitude_scale=amplitude_scale,
        )

    def plan_trajectory(self, trajectory: Trajectory, *, start_time: float = 0.0,
                        breathing: BreathingWaveform | None = None,
                        rng: np.random.Generator | None = None) -> SpoofSchedule:
        """Compile a full ghost trajectory (room coordinates) to a schedule.

        Raises :class:`ReflectorError` if any point is unspoofable (too
        close to the panel); use :meth:`place_trajectory` first to position
        a shape-only (e.g. GAN-generated) trajectory into coverage.
        """
        num_commands = max(int(round(trajectory.duration * self.command_rate)), 1)
        times = start_time + np.arange(num_commands + 1) * self.command_interval
        if breathing is not None:
            phases = breathing.phase_waveform(times, rng)
        else:
            phases = np.zeros_like(times)
        if self.rcs_variation > 0:
            jitter_rng = rng if rng is not None else np.random.default_rng(0)
            scales = np.maximum(
                1.0 + self.rcs_variation * jitter_rng.standard_normal(times.size),
                0.1,
            )
        else:
            scales = np.ones_like(times)
        commands = [
            self.command_for_point(
                trajectory.position_at(t - start_time), float(t),
                phase_shift=float(phase), amplitude_scale=float(scale),
            )
            for t, phase, scale in zip(times, phases, scales)
        ]
        return SpoofSchedule(commands, command_interval=self.command_interval)

    def plan_static_ghost(self, position: np.ndarray, duration: float, *,
                          start_time: float = 0.0,
                          breathing: BreathingWaveform | None = None,
                          rng: np.random.Generator | None = None) -> SpoofSchedule:
        """Schedule a stationary ghost (e.g. a sleeping, breathing phantom)."""
        if duration <= 0:
            raise ReflectorError("duration must be positive")
        position = np.asarray(position, dtype=float)
        points = np.vstack([position, position])
        trajectory = Trajectory(points, dt=duration)
        return self.plan_trajectory(trajectory, start_time=start_time,
                                    breathing=breathing, rng=rng)

    def place_trajectory(self, trajectory: Trajectory, *,
                         center_range: float | None = None) -> Trajectory:
        """Translate a shape-only trajectory into the panel's coverage.

        The GAN produces trajectory *shapes* around the origin; this places
        the shape so its centroid sits ``center_range`` meters from the
        nominal radar along the panel normal (default: far enough that every
        point clears the minimum offset), preserving the shape exactly.
        """
        centered = trajectory.centered()
        radii = np.linalg.norm(centered.points, axis=1)
        clearance = float(radii.max()) + self.min_distance_offset + 0.5
        panel_range = float(np.linalg.norm(self.panel.center - self.radar_position))
        minimum_range = panel_range + clearance
        if center_range is None:
            center_range = minimum_range
        elif center_range < minimum_range:
            raise ReflectorError(
                f"center_range {center_range:.2f} m leaves points unspoofable; "
                f"need at least {minimum_range:.2f} m"
            )
        center = self.radar_position + center_range * self.panel.normal_direction
        return centered.translated(center)
