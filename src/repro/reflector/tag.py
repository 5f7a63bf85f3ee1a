"""`RfProtectTag`: the deployed reflector as a radar scene entity.

The tag executes one :class:`~repro.reflector.controller.SpoofSchedule` per
ghost. At each radar frame it looks up the active command of every schedule
and emits the spectral lines the switched reflection chain produces: the
static carrier at the selected antenna's true position (removed by the
radar's background subtraction, like any piece of furniture) plus the
square-wave harmonics whose ``+1`` line is the moving ghost (Sec. 5.1).

Because the tag re-radiates the *radar's own* signal, it transmits nothing
when the radar is silent — the property that defeats the turn-the-radar-off
detection of prior spoofing attacks (Sec. 12).

A command the hardware cannot execute (a port past the switch or the
panel) raises from the tag's emission plan, schedule by schedule in deploy
order, so the sweep fails before the radar draws anything.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ReflectorError
from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.emit import (
    AMPLITUDE,
    ANGLE,
    BEAT_OFFSET,
    DISTANCE,
    EXTRA_DELAY,
    NUM_ROWS,
    PHASE_OFFSET,
    SlotPlan,
    merge_runs,
    polar_rows,
)
from repro.reflector.controller import CommandTimeline, SpoofSchedule
from repro.reflector.hardware import (
    AntennaSwitchModel,
    LnaModel,
    PhaseShifterModel,
    SwitchModel,
)
from repro.reflector.panel import ReflectorPanel
from repro.types import Trajectory

__all__ = ["GhostReport", "RfProtectTag", "merged_plan", "panel_paths"]


@dataclasses.dataclass(frozen=True)
class GhostReport:
    """Side-channel disclosure of one injected ghost (Sec. 11.3).

    A user-authorized sensor receives these reports and can subtract the
    fake trajectories from its tracking output; an eavesdropper never sees
    them because they are conveyed out of band, not over RF.
    """

    ghost_id: int
    trajectory: Trajectory
    start_time: float


class RfProtectTag:
    """The RF-Protect reflector deployed in a scene.

    Args:
        panel: antenna panel geometry.
        switch: on/off modulation switch model.
        phase_shifter: breathing phase shifter model.
        antenna_switch: SP8T antenna selector model.
        lna: amplifier model; with the default channel this makes the
            phantom's received power comparable to a human reflection,
            matching Fig. 10's observation.
        base_rcs: radar cross-section of one panel antenna before
            amplification.
    """

    def __init__(self, panel: ReflectorPanel, *,
                 switch: SwitchModel | None = None,
                 phase_shifter: PhaseShifterModel | None = None,
                 antenna_switch: AntennaSwitchModel | None = None,
                 lna: LnaModel | None = None,
                 base_rcs: float = 0.01) -> None:
        if base_rcs <= 0:
            raise ReflectorError("base_rcs must be positive")
        self.panel = panel
        self.switch = switch if switch is not None else SwitchModel()
        self.phase_shifter = (phase_shifter if phase_shifter is not None
                              else PhaseShifterModel())
        self.antenna_switch = (antenna_switch if antenna_switch is not None
                               else AntennaSwitchModel())
        if self.antenna_switch.num_ports < panel.num_antennas:
            raise ReflectorError(
                f"panel has {panel.num_antennas} antennas but the switch "
                f"only has {self.antenna_switch.num_ports} ports"
            )
        self.lna = lna if lna is not None else LnaModel()
        self.base_rcs = base_rcs
        self.schedules: list[SpoofSchedule] = []

    @property
    def effective_rcs(self) -> float:
        """RCS the radar equation sees after the full amplification chain."""
        chain_amplitude = (self.antenna_switch.through_amplitude
                           * self.switch.through_amplitude
                           * self.phase_shifter.through_amplitude
                           * self.lna.amplitude_gain)
        return self.base_rcs * chain_amplitude ** 2

    def deploy(self, schedule: SpoofSchedule) -> int:
        """Start executing a ghost schedule; returns its ghost id."""
        self.schedules.append(schedule)
        return len(self.schedules) - 1

    def clear(self) -> None:
        """Stop all ghosts."""
        self.schedules.clear()

    def ghost_reports(self) -> list[GhostReport]:
        """Side-channel reports for all deployed ghosts (legitimate sensing)."""
        return [
            GhostReport(ghost_id=i,
                        trajectory=schedule.intended_trajectory(),
                        start_time=schedule.start_time)
            for i, schedule in enumerate(self.schedules)
        ]

    def emission_plan(self, times: np.ndarray, array: UniformLinearArray,
                      channel: ChannelModel) -> SlotPlan:
        """Spectral lines the tag contributes to the frames at ``times``.

        Implements the :class:`~repro.radar.scene.SceneEntity` protocol, so
        a tag is added to a scene exactly like a human — the radar frontend
        cannot tell the difference, by construction. Per frame, each active
        schedule emits one line per switching harmonic; the ``±1`` lines
        (the ghost and its mirror) are dressed by the environment's dynamic
        multipath like any other reflection — Fig. 10b notes these
        "secondary reflections around the phantom".

        Raises :class:`~repro.errors.ReflectorError` for a commanded port
        the switch or panel lacks and
        :class:`~repro.errors.ConfigurationError` for an antenna at the
        array centre, checking schedules in deploy order
        (:func:`panel_paths`).
        """
        harmonics = self.switch.harmonics()
        orders = np.array([h.order for h in harmonics], dtype=float)
        line_scale = np.array([h.amplitude for h in harmonics])
        line_phase = np.array([h.phase for h in harmonics])
        dressed = np.abs(orders) == 1
        rcs = self.effective_rcs
        runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for schedule in self.schedules:
            frames, command, distance, angle = panel_paths(
                schedule, times, array, self.panel, self.antenna_switch)
            amplitude = (channel.path_amplitude(distance, rcs)
                         * schedule.command_field("amplitude_scale")[command])
            commanded = self.phase_shifter.quantize(
                schedule.command_field("phase_shift")[command])
            frequency = schedule.command_field("switch_frequency")[command]
            # The switching oscillator runs continuously; its phase at frame
            # time t is 2*pi*f*t. Frame-coherent frequencies (multiples of
            # the frame rate) make this wrap to the same value every frame,
            # which is what keeps spoofed breathing readable in phase.
            switching = 2.0 * np.pi * frequency * times[frames]
            lines = np.empty((NUM_ROWS, frames.shape[0], orders.shape[0]),
                             dtype=float)
            lines[DISTANCE] = distance[:, None]
            lines[ANGLE] = angle[:, None]
            lines[AMPLITUDE] = amplitude[:, None] * line_scale
            lines[BEAT_OFFSET] = orders * frequency[:, None]
            lines[PHASE_OFFSET] = (orders * switching[:, None] + line_phase
                                   + commanded[:, None])
            lines[EXTRA_DELAY] = 0.0
            counts = np.zeros(times.shape[0], dtype=np.int64)
            counts[frames] = orders.shape[0]
            runs.append((counts, lines.reshape(NUM_ROWS, -1),
                         np.tile(dressed, frames.shape[0])))
        return merged_plan(runs, times.shape[0])


def panel_paths(schedule: CommandTimeline, times: np.ndarray,
                array: UniformLinearArray, panel: ReflectorPanel,
                antenna_switch: AntennaSwitchModel,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where a schedule's selected panel antenna sits, frame by frame.

    Returns the frames with an active command, those commands' indices,
    and the radar→antenna distance and clipped angle per active frame.

    Raises, in this order: the switch's ``ReflectorError`` for the first
    port outside it, the panel's for the first port outside the panel,
    then (:func:`~repro.radar.emit.polar_rows`) ``ConfigurationError`` for
    an antenna at the array centre.
    """
    active = schedule.command_indices(times)
    frames = np.flatnonzero(active >= 0)
    command = active[frames]
    ports = schedule.command_field("antenna_index")[command]
    bad_port = (ports < 0) | (ports >= antenna_switch.num_ports)
    if bad_port.any():
        antenna_switch.check_port(int(ports[np.argmax(bad_port)]))
    off_panel = ports >= panel.num_antennas
    if off_panel.any():
        panel.antenna_position(int(ports[np.argmax(off_panel)]))
    distance, angle = polar_rows(array, panel.antenna_positions()[ports])
    return frames, command, distance, angle


def merged_plan(runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                num_frames: int) -> SlotPlan:
    """One entity plan from per-schedule ``(counts, columns, multipath)``
    runs, schedules in order within each frame."""
    if not runs:
        return SlotPlan(counts=np.zeros(num_frames, dtype=np.int64),
                        columns=np.zeros((NUM_ROWS, 0), dtype=float))
    if len(runs) == 1:
        counts, columns, multipath = runs[0]
        return SlotPlan(counts=counts, columns=columns, multipath=multipath)
    counts, positions = merge_runs([run[0] for run in runs])
    columns = np.empty((NUM_ROWS, int(counts.sum())), dtype=float)
    multipath = np.zeros(columns.shape[1], dtype=bool)
    for (_, run_columns, run_multipath), pos in zip(runs, positions):
        columns[:, pos] = run_columns
        multipath[pos] = run_multipath
    return SlotPlan(counts=counts, columns=columns, multipath=multipath)
