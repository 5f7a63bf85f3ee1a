"""Scene graph: the room, its humans, static clutter, and deployed tags.

Every entity implements :class:`SceneEntity` — given the frame times of a
sweep it plans the :class:`~repro.radar.frontend.PathComponent` tones it
contributes to the dechirped signal, which
:func:`~repro.radar.emit.emit_paths` turns into packed columns for one
frame or a whole sweep alike. The RF-Protect tag (`repro.reflector.tag`)
implements the same protocol, so the radar cannot tell humans and
phantoms apart by construction, which is the point of the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.errors import SceneError
from repro.geometry import Rectangle
from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.emit import (
    AMPLITUDE,
    ANGLE,
    DISTANCE,
    MIN_ANGLE,
    NUM_ROWS,
    Predraw,
    SceneEntity,
    SlotPlan,
    polar_rows,
)
from repro.types import Trajectory

__all__ = ["BreathingSpec", "Fan", "HumanTarget", "OcclusionSpec", "Scene",
           "SceneEntity", "StaticReflector"]


@dataclasses.dataclass(frozen=True)
class OcclusionSpec:
    """Inter-person occlusion model for crowd scenes.

    When one human body stands between the radar and another, the blocked
    subject's echo is attenuated (shadowing, Sec. 2's crowded-room
    regime). The model is deliberately deterministic — a pure function of
    entity positions at the frame time, drawing nothing from the RNG — so
    enabling it never perturbs the generator stream of the unoccluded
    entities, and scenes without it stay bit-identical to history.

    Attributes:
        body_radius: blocking half-width of a standing body, meters.
        attenuation_db: one-way amplitude loss per blocking body, dB.
    """

    body_radius: float = 0.25
    attenuation_db: float = 6.0

    def __post_init__(self) -> None:
        if self.body_radius <= 0:
            raise SceneError("occlusion body_radius must be positive")
        if self.attenuation_db < 0:
            raise SceneError("occlusion attenuation_db must be >= 0")

    @property
    def attenuation_linear(self) -> float:
        """Linear amplitude factor applied per blocking body."""
        return float(10.0 ** (-self.attenuation_db / 20.0))


@dataclasses.dataclass(frozen=True)
class BreathingSpec:
    """Chest-motion parameters of a (real) breathing human.

    Attributes:
        amplitude: peak chest displacement in meters (~5 mm typical).
        frequency: breaths per second (~0.25 Hz = 15 breaths/min).
        phase: initial breathing phase in radians.
    """

    amplitude: float = 0.005
    frequency: float = 0.25
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise SceneError("breathing amplitude must be >= 0")
        if self.frequency <= 0:
            raise SceneError("breathing frequency must be positive")

    def displacement(self, t: float) -> float:
        """Radial chest displacement at time ``t``, meters."""
        return float(self.displacements(np.array([t], dtype=float))[0])

    def displacements(self, times: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`displacement` over ``times``, meters."""
        moved: np.ndarray = self.amplitude * np.sin(
            2.0 * np.pi * self.frequency * times + self.phase)
        return moved


class HumanTarget:
    """A walking (or stationary) human reflector.

    The body is modelled as a dominant scatter point following ``trajectory``
    with an RCS that fluctuates frame to frame (posture, limbs), breathing
    chest motion added radially, and environment-dependent dynamic multipath
    drawn from the channel.
    """

    def __init__(self, trajectory: Trajectory, *, rcs: float = 1.0,
                 rcs_fluctuation: float = 0.2,
                 breathing: BreathingSpec | None = None) -> None:
        if rcs <= 0:
            raise SceneError(f"human rcs must be positive, got {rcs}")
        if not 0 <= rcs_fluctuation < 1:
            raise SceneError("rcs_fluctuation must be in [0, 1)")
        self.trajectory = trajectory
        self.rcs = rcs
        self.rcs_fluctuation = rcs_fluctuation
        self.breathing = breathing if breathing is not None else BreathingSpec()

    def position_at(self, t: float) -> np.ndarray:
        """Body position at time ``t`` (trajectory clamped at its ends)."""
        return self.trajectory.position_at(t)

    def positions_at(self, times: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`position_at` over ``times``, shape ``(F, 2)``."""
        trajectory = self.trajectory
        clamped = np.minimum(np.maximum(times, 0.0), trajectory.duration)
        knots = trajectory.times
        return np.stack([np.interp(clamped, knots, trajectory.points[:, 0]),
                         np.interp(clamped, knots, trajectory.points[:, 1])],
                        axis=1)

    def emission_plan(self, times: np.ndarray, array: UniformLinearArray,
                      channel: ChannelModel) -> SlotPlan:
        """One body echo per frame; its RCS draw sets the amplitude."""
        body = self.positions_at(times)
        distance, angle = polar_rows(array, body)
        columns = np.zeros((NUM_ROWS, times.shape[0]), dtype=float)
        columns[DISTANCE] = distance + self.breathing.displacements(times)
        columns[ANGLE] = angle

        def finish(columns: np.ndarray, normals: np.ndarray) -> None:
            rcs = self.rcs * (1.0 + self.rcs_fluctuation * normals)
            rcs = np.maximum(rcs, 0.05 * self.rcs)
            columns[AMPLITUDE] = channel.path_amplitude(columns[DISTANCE], rcs)

        every_frame = np.ones(times.shape[0], dtype=np.int64)
        return SlotPlan(counts=every_frame, columns=columns,
                        predraw=Predraw.NORMAL,
                        multipath=every_frame.astype(bool), finish=finish,
                        body=body)


class StaticReflector:
    """Furniture, walls, appliances: constant reflections.

    These produce identical tones in every frame, so background subtraction
    (Sec. 3, "Addressing Static Reflectors") removes them exactly; they are
    included to make that stage do real work.
    """

    def __init__(self, position: tuple[float, float] | np.ndarray, *,
                 rcs: float = 1.0) -> None:
        if rcs <= 0:
            raise SceneError(f"static rcs must be positive, got {rcs}")
        self.position = np.asarray(position, dtype=float)
        if self.position.shape != (2,):
            raise SceneError("static reflector position must be (x, y)")
        self.rcs = rcs
        self._memo: tuple[tuple[object, ...],
                          tuple[float, float, float]] | None = None

    def _echo(self, array: UniformLinearArray,
              channel: ChannelModel) -> tuple[float, float, float]:
        """(distance, clipped angle, amplitude) of the one echo.

        Scalar geometry, memoized for the last (array, channel, position,
        rcs) it was asked about — every sweep of a scene repeats it.
        Raises :class:`ConfigurationError` at the array centre.
        """
        key = (self.position.tobytes(), self.rcs, array.position.tobytes(),
               array.axis.tobytes(), channel.reference_amplitude,
               channel.reference_distance)
        if self._memo is None or self._memo[0] != key:
            distance, angle = array.polar_of(self.position)
            self._memo = key, (
                distance, min(max(angle, MIN_ANGLE), np.pi - MIN_ANGLE),
                float(channel.path_amplitude(distance, self.rcs)))
        return self._memo[1]

    def emission_plan(self, times: np.ndarray, array: UniformLinearArray,
                      channel: ChannelModel) -> SlotPlan:
        """The same echo in every frame (an empty grid raises nothing)."""
        num_frames = times.shape[0]
        columns = np.zeros((NUM_ROWS, num_frames), dtype=float)
        if num_frames:
            columns[[DISTANCE, ANGLE, AMPLITUDE]] = np.array(
                self._echo(array, channel), dtype=float)[:, None]
        return SlotPlan(counts=np.ones(num_frames, dtype=np.int64),
                        columns=columns)


class Fan:
    """A ceiling/desk fan: a small reflector in fast periodic motion.

    The threat model's canonical non-human mover (Sec. 2): blades sweep a
    small circle at a fixed rotation rate, producing a perfectly periodic
    track the eavesdropper's periodicity filter
    (:func:`repro.eavesdropper.filter_periodic_tracks`) must reject while
    keeping humans and GAN ghosts.
    """

    def __init__(self, position: tuple[float, float] | np.ndarray, *,
                 blade_radius: float = 0.35, rotation_hz: float = 1.2,
                 rcs: float = 0.4) -> None:
        if blade_radius <= 0:
            raise SceneError("blade_radius must be positive")
        if rotation_hz <= 0:
            raise SceneError("rotation_hz must be positive")
        if rcs <= 0:
            raise SceneError("rcs must be positive")
        self.position = np.asarray(position, dtype=float)
        if self.position.shape != (2,):
            raise SceneError("fan position must be (x, y)")
        self.blade_radius = blade_radius
        self.rotation_hz = rotation_hz
        self.rcs = rcs

    def blade_position(self, t: float) -> np.ndarray:
        """Dominant blade-reflection point at time ``t``."""
        point: np.ndarray = self.blade_positions(np.array([t], dtype=float))[0]
        return point

    def blade_positions(self, times: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`blade_position` over ``times``, shape ``(F, 2)``."""
        phase = 2.0 * np.pi * self.rotation_hz * times
        points: np.ndarray = self.position + self.blade_radius * np.stack(
            [np.cos(phase), np.sin(phase)], axis=1)
        return points

    def emission_plan(self, times: np.ndarray, array: UniformLinearArray,
                      channel: ChannelModel) -> SlotPlan:
        """One blade echo per frame."""
        blade = self.blade_positions(times)
        distance, angle = polar_rows(array, blade)
        columns = np.zeros((NUM_ROWS, times.shape[0]), dtype=float)
        columns[DISTANCE] = distance
        columns[ANGLE] = angle
        columns[AMPLITUDE] = channel.path_amplitude(distance, self.rcs)
        return SlotPlan(counts=np.ones(times.shape[0], dtype=np.int64),
                        columns=columns)


class Scene:
    """A room with its reflecting entities."""

    def __init__(self, room: Rectangle,
                 channel: ChannelModel | None = None,
                 occlusion: OcclusionSpec | None = None) -> None:
        self.room = room
        self.channel = channel if channel is not None else ChannelModel()
        self.occlusion = occlusion
        self.entities: list[SceneEntity] = []

    def add(self, entity: SceneEntity) -> None:
        """Register any entity implementing the :class:`SceneEntity` protocol."""
        if not isinstance(entity, SceneEntity):
            raise SceneError(
                f"{type(entity).__name__} does not implement emission_plan()"
            )
        self.entities.append(entity)

    def add_human(self, trajectory: Trajectory, **kwargs: Any) -> HumanTarget:
        """Add a human; rejects trajectories that leave the room."""
        if not self.room.contains_all(trajectory.points):
            raise SceneError("human trajectory leaves the room footprint")
        human = HumanTarget(trajectory, **kwargs)
        self.entities.append(human)
        return human

    def add_static(self, position: tuple[float, float], *,
                   rcs: float = 1.0) -> StaticReflector:
        """Add a piece of static clutter; rejects positions outside the room."""
        if not self.room.contains(position):
            raise SceneError(f"static reflector at {position} is outside the room")
        static = StaticReflector(position, rcs=rcs)
        self.entities.append(static)
        return static

    def humans(self) -> list[HumanTarget]:
        """All human entities currently in the scene."""
        return [e for e in self.entities if isinstance(e, HumanTarget)]
