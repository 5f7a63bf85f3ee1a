"""Delay-line spoofer: RF-Protect for pulsed radars (Sec. 13).

Against a pulsed radar, distance must be spoofed with *true* delay —
Sec. 13 proposes "adding a set of delay lines and switching between them".
This tag carries a bank of discrete delay lines behind the same antenna
panel: antenna choice sets the apparent direction exactly as in the FMCW
design, the selected line sets the apparent extra distance (quantized to
the line spacing).

The same tag also works against FMCW radars (a true delay shifts the beat
frequency identically), making it the modulation-agnostic variant of the
defense — at the cost of bulkier hardware, which is why the paper's
primary design prefers kHz switching.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import constants
from repro.errors import ReflectorError
from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.emit import (
    AMPLITUDE,
    ANGLE,
    DISTANCE,
    EXTRA_DELAY,
    NUM_ROWS,
    PHASE_OFFSET,
    Predraw,
    SlotPlan,
)
from repro.reflector.controller import CommandTimeline
from repro.reflector.hardware import AntennaSwitchModel, LnaModel
from repro.reflector.panel import ReflectorPanel
from repro.reflector.tag import merged_plan, panel_paths
from repro.types import Trajectory

__all__ = ["DelayLineCommand", "DelayLineSchedule", "DelayLineTag"]


@dataclasses.dataclass(frozen=True)
class DelayLineCommand:
    """One interval of the delay-line MCU schedule."""

    time: float
    antenna_index: int
    line_index: int
    ghost_position: tuple[float, float]


class DelayLineSchedule(CommandTimeline):
    """Time-ordered delay-line commands for one ghost."""

    def __init__(self, commands: list[DelayLineCommand], *,
                 command_interval: float) -> None:
        if not commands:
            raise ReflectorError("a schedule needs at least one command")
        if command_interval <= 0:
            raise ReflectorError("command interval must be positive")
        self.commands: list[DelayLineCommand] = sorted(commands,
                                                       key=lambda c: c.time)
        self.command_interval = float(command_interval)

    def intended_trajectory(self) -> Trajectory:
        points = np.array([c.ghost_position for c in self.commands])
        if points.shape[0] == 1:
            points = np.vstack([points, points])
        return Trajectory(points, dt=self.command_interval)


class DelayLineTag:
    """A switched-antenna, switched-delay-line reflector.

    Args:
        panel: the antenna panel (shared with the FMCW design).
        num_lines: number of selectable delay lines.
        line_spacing_m: apparent-distance step per line, meters. The bank
            spans ``num_lines * line_spacing_m`` of spoofable extra range.
        radar_position: nominal eavesdropper position (defaults to the
            panel's wall-deployment assumption, as in the FMCW controller).
        command_rate: MCU updates per second.
        lna / antenna_switch: amplification chain models.
        base_rcs: per-antenna RCS before amplification.
        phase_dither: per-frame random carrier-phase modulation. A
            quantized delay-line ghost is piecewise-static between line
            switches, so frame differencing would cancel it; dithering the
            phase (a cheap extra phase-shifter stage, standing in for the
            micro-motion every real target has) keeps the ghost visible —
            the role the switching-oscillator phase plays implicitly in the
            FMCW design.
    """

    def __init__(self, panel: ReflectorPanel, *, num_lines: int = 32,
                 line_spacing_m: float = 0.15,
                 radar_position: np.ndarray | None = None,
                 command_rate: float = 10.0,
                 lna: LnaModel | None = None,
                 antenna_switch: AntennaSwitchModel | None = None,
                 base_rcs: float = 0.01,
                 phase_dither: bool = True) -> None:
        if num_lines < 1:
            raise ReflectorError("need at least one delay line")
        if line_spacing_m <= 0:
            raise ReflectorError("line spacing must be positive")
        if command_rate <= 0:
            raise ReflectorError("command_rate must be positive")
        if base_rcs <= 0:
            raise ReflectorError("base_rcs must be positive")
        self.panel = panel
        self.num_lines = num_lines
        self.line_spacing_m = float(line_spacing_m)
        if radar_position is None:
            radar_position = panel.default_radar_position()
        self.radar_position = np.asarray(radar_position, dtype=float)
        self.command_rate = float(command_rate)
        self.lna = lna if lna is not None else LnaModel()
        self.antenna_switch = (antenna_switch if antenna_switch is not None
                               else AntennaSwitchModel())
        if self.antenna_switch.num_ports < panel.num_antennas:
            raise ReflectorError("antenna switch too small for the panel")
        self.base_rcs = base_rcs
        self.phase_dither = phase_dither
        self.schedules: list[DelayLineSchedule] = []

    @property
    def effective_rcs(self) -> float:
        chain = (self.antenna_switch.through_amplitude
                 * self.lna.amplitude_gain)
        return self.base_rcs * chain ** 2

    @property
    def max_offset_m(self) -> float:
        """Largest spoofable extra distance."""
        return self.num_lines * self.line_spacing_m

    def line_delay(self, line_index: int) -> float:
        """Round-trip delay (seconds) of line ``line_index`` (1-based step)."""
        if not 0 <= line_index < self.num_lines:
            raise ReflectorError(
                f"line index {line_index} outside bank of {self.num_lines}"
            )
        extra_distance = (line_index + 1) * self.line_spacing_m
        return 2.0 * extra_distance / constants.SPEED_OF_LIGHT

    def plan_trajectory(self, trajectory: Trajectory, *,
                        start_time: float = 0.0) -> DelayLineSchedule:
        """Compile a ghost trajectory (room coordinates) to line commands."""
        command_interval = 1.0 / self.command_rate
        num_commands = max(int(round(trajectory.duration * self.command_rate)), 1)
        times = start_time + np.arange(num_commands + 1) * command_interval
        commands = []
        for t in times:
            ghost = trajectory.position_at(float(t) - start_time)
            rel = ghost - self.radar_position
            bearing = float(np.arctan2(rel[1], rel[0]))
            antenna_index = self.panel.nearest_antenna(bearing,
                                                       self.radar_position)
            antenna = self.panel.antenna_position(antenna_index)
            path = float(np.linalg.norm(antenna - self.radar_position))
            offset = float(np.linalg.norm(rel)) - path
            line_index = int(round(offset / self.line_spacing_m)) - 1
            if not 0 <= line_index < self.num_lines:
                raise ReflectorError(
                    f"ghost offset {offset:.2f} m outside the delay bank "
                    f"(0.15-{self.max_offset_m:.2f} m)"
                )
            commands.append(DelayLineCommand(
                time=float(t), antenna_index=antenna_index,
                line_index=line_index,
                ghost_position=(float(ghost[0]), float(ghost[1])),
            ))
        return DelayLineSchedule(commands, command_interval=command_interval)

    def deploy(self, schedule: DelayLineSchedule) -> int:
        self.schedules.append(schedule)
        return len(self.schedules) - 1

    def emission_plan(self, times: np.ndarray, array: UniformLinearArray,
                      channel: ChannelModel) -> SlotPlan:
        """Scene-entity protocol: delayed echoes from the panel antennas.

        One echo per active schedule per frame; with ``phase_dither`` each
        echo's carrier phase is a fresh uniform draw. Schedules are checked
        in deploy order: :func:`~repro.reflector.tag.panel_paths`'s errors,
        then :meth:`line_delay`'s ``ReflectorError`` for the first line
        outside the bank.
        """
        rcs = self.effective_rcs
        runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for schedule in self.schedules:
            frames, command, distance, angle = panel_paths(
                schedule, times, array, self.panel, self.antenna_switch)
            lines = schedule.command_field("line_index")[command]
            bad_line = (lines < 0) | (lines >= self.num_lines)
            if bad_line.any():
                self.line_delay(int(lines[np.argmax(bad_line)]))
            echoes = np.zeros((NUM_ROWS, frames.shape[0]), dtype=float)
            echoes[DISTANCE] = distance
            echoes[ANGLE] = angle
            echoes[AMPLITUDE] = channel.path_amplitude(distance, rcs)
            echoes[EXTRA_DELAY] = (2.0 * ((lines + 1) * self.line_spacing_m)
                                   / constants.SPEED_OF_LIGHT)
            counts = np.zeros(times.shape[0], dtype=np.int64)
            counts[frames] = 1
            runs.append((counts, echoes,
                         np.zeros(frames.shape[0], dtype=bool)))
        plan = merged_plan(runs, times.shape[0])
        if self.phase_dither:
            plan.predraw = Predraw.UNIFORM
            plan.finish = _set_dither
        return plan


def _set_dither(columns: np.ndarray, dither: np.ndarray) -> None:
    columns[PHASE_OFFSET] = dither
