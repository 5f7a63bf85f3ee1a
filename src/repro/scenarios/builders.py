"""Builders: the only place scenario specs become environments and scenes.

Everything downstream — experiments, the serve demo workload, golden
digests — constructs deployments through :func:`build` (or the
:class:`Environment` helpers it returns). The rflint rule **RFP016**
enforces that: direct ``Scene(...)``/``Environment(...)`` construction in
experiment or serve code is rejected, the same registry-only discipline
RFP003 applies to ``RF_PROTECT_*`` reads.

Seeding is worker-count independent: one ``np.random.SeedSequence`` per
built scenario spawns a child stream per human (by index) plus one for
the reflector strategy, so building human 3 alone yields the same
trajectory as building all humans together.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Any

import numpy as np

from repro import constants
from repro.errors import ConfigurationError, ScenarioError
from repro.geometry import Rectangle
from repro.radar import ChannelModel, FmcwRadar, RadarConfig, Scene
from repro.radar.channel import MultipathSpec
from repro.radar.scene import SceneEntity
from repro.reflector import ReflectorController, ReflectorPanel, RfProtectTag
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import RadarPlacement, ReflectorSpec, ScenarioSpec
from repro.trajectories.synthesis import (
    HumanMotionSimulator,
    synthesize_program,
)
from repro.types import Trajectory

__all__ = [
    "REFLECTOR_STRATEGIES",
    "BuiltScenario",
    "Environment",
    "build",
    "build_environment",
    "register_reflector_strategy",
]


@dataclasses.dataclass(frozen=True)
class Environment:
    """One evaluation deployment: room, radar pose, panel pose, clutter."""

    name: str
    room: Rectangle
    radar_config: RadarConfig
    panel: ReflectorPanel
    multipath: MultipathSpec
    static_clutter: tuple[tuple[float, float, float], ...]
    """Static reflectors as ``(x, y, rcs)`` triples."""

    def make_channel(self) -> ChannelModel:
        """Channel with this environment's multipath statistics."""
        return ChannelModel(multipath=self.multipath)

    def make_scene(self, *, include_clutter: bool = True,
                   channel: ChannelModel | None = None) -> Scene:
        """Fresh scene with the environment's static clutter.

        ``channel`` overrides the environment's own multipath channel —
        e.g. a clean ``ChannelModel()`` to isolate geometric effects from
        environment noise.
        """
        scene = Scene(self.room,
                      channel=self.make_channel() if channel is None
                      else channel)
        if include_clutter:
            for x, y, rcs in self.static_clutter:
                scene.add_static((x, y), rcs=rcs)
        return scene

    def make_radar(self) -> FmcwRadar:
        """The eavesdropper (or legitimate) radar for this deployment."""
        return FmcwRadar(self.radar_config)

    def make_tag(self, **tag_kwargs: Any) -> RfProtectTag:
        """A fresh RF-Protect tag on this environment's panel."""
        return RfProtectTag(self.panel, **tag_kwargs)

    def make_controller(self, *, frame_coherent: bool = False,
                        **controller_kwargs: Any) -> ReflectorController:
        """Controller calibrated for this environment's chirp.

        The controller uses the panel's *nominal* radar assumption, not the
        true radar position — the tag never learns the latter (Sec. 5.2).
        """
        frame_rate = (self.radar_config.frame_rate if frame_coherent else None)
        return ReflectorController(
            self.panel, self.radar_config.chirp,
            frame_coherent_rate=frame_rate,
            **controller_kwargs,
        )

    @property
    def radar_position(self) -> np.ndarray:
        return np.asarray(self.radar_config.position, dtype=float)


#: Per-wall pose: (axis_angle, facing_angle, inward normal direction).
_WALL_GEOMETRY: dict[str, tuple[float, float, tuple[float, float]]] = {
    "bottom": (0.0, np.pi / 2.0, (0.0, 1.0)),
    "top": (0.0, -np.pi / 2.0, (0.0, -1.0)),
    "left": (np.pi / 2.0, 0.0, (1.0, 0.0)),
    "right": (np.pi / 2.0, np.pi, (-1.0, 0.0)),
}


def _radar_pose(room: Rectangle, placement: RadarPlacement,
                ) -> tuple[tuple[float, float], float, float,
                           tuple[float, float]]:
    """(position, axis_angle, facing_angle, inward normal) of a placement."""
    axis_angle, facing_angle, normal = _WALL_GEOMETRY[placement.wall]
    fraction, inset = placement.fraction, placement.inset
    if placement.wall in ("bottom", "top"):
        x = room.x_min + fraction * room.width
        y = (room.y_min + inset if placement.wall == "bottom"
             else room.y_max - inset)
    else:
        x = (room.x_min + inset if placement.wall == "left"
             else room.x_max - inset)
        y = room.y_min + fraction * room.depth
    return (x, y), axis_angle, facing_angle, normal


def build_environment(spec: ScenarioSpec) -> Environment:
    """The spec's :class:`Environment`: room, primary radar, panel, clutter."""
    width, depth = spec.floorplan.size
    if width <= 0 or depth <= 0:
        raise ConfigurationError("environment size must be positive")
    room = Rectangle.from_size(width, depth)
    position, axis_angle, facing_angle, normal = _radar_pose(room,
                                                             spec.radars[0])
    radar_config = RadarConfig(position=position, axis_angle=axis_angle,
                               facing_angle=facing_angle)
    distance = constants.RADAR_TO_REFLECTOR_DISTANCE_M
    panel = ReflectorPanel(
        (position[0] + normal[0] * distance,
         position[1] + normal[1] * distance),
        wall_angle=axis_angle, normal_angle=facing_angle,
    )
    return Environment(name=spec.name, room=room, radar_config=radar_config,
                       panel=panel, multipath=spec.multipath,
                       static_clutter=spec.floorplan.clutter)


def _extra_radar_config(environment: Environment,
                        placement: RadarPlacement) -> RadarConfig:
    """A secondary radar sharing the primary's chirp and noise floor."""
    position, axis_angle, facing_angle, _ = _radar_pose(environment.room,
                                                        placement)
    return RadarConfig(
        chirp=environment.radar_config.chirp,
        position=position,
        axis_angle=axis_angle,
        facing_angle=facing_angle,
        frame_rate=environment.radar_config.frame_rate,
        noise_std=environment.radar_config.noise_std,
    )


ReflectorStrategy = Callable[
    [ReflectorSpec, ScenarioSpec, Environment, np.random.Generator],
    SceneEntity | None,
]

#: Registered reflector strategies, keyed by ``ReflectorSpec.kind``. The
#: single dispatch point for defense deployment.
REFLECTOR_STRATEGIES: dict[str, ReflectorStrategy] = {}


def register_reflector_strategy(kind: str,
                                ) -> Callable[[ReflectorStrategy],
                                              ReflectorStrategy]:
    """Decorator registering a strategy under ``kind`` (duplicates rejected)."""
    def wrap(strategy: ReflectorStrategy) -> ReflectorStrategy:
        if kind in REFLECTOR_STRATEGIES:
            raise ScenarioError(
                f"duplicate reflector strategy registration: {kind}"
            )
        REFLECTOR_STRATEGIES[kind] = strategy
        return strategy
    return wrap


@register_reflector_strategy("none")
def _no_reflector(reflector: ReflectorSpec, spec: ScenarioSpec,
                  environment: Environment,
                  rng: np.random.Generator) -> SceneEntity | None:
    return None


@register_reflector_strategy("static-ghost")
def _static_ghost(reflector: ReflectorSpec, spec: ScenarioSpec,
                  environment: Environment,
                  rng: np.random.Generator) -> SceneEntity | None:
    position = environment.panel.center + np.asarray(reflector.ghost_offset,
                                                     dtype=float)
    controller = environment.make_controller()
    schedule = controller.plan_static_ghost(position, spec.duration_s,
                                            rng=rng)
    tag = environment.make_tag()
    tag.deploy(schedule)
    return tag


@register_reflector_strategy("walking-ghost")
def _walking_ghost(reflector: ReflectorSpec, spec: ScenarioSpec,
                   environment: Environment,
                   rng: np.random.Generator) -> SceneEntity | None:
    simulator = HumanMotionSimulator(num_points=spec.num_points,
                                     duration=spec.duration_s, rng=rng)
    shape = simulator.sample_trajectory(
        profile_index=reflector.ghost_profile).centered()
    controller = environment.make_controller()
    placed = controller.place_trajectory(shape)
    schedule = controller.plan_trajectory(placed, rng=rng)
    tag = environment.make_tag()
    tag.deploy(schedule)
    return tag


@register_reflector_strategy("breathing-ghost")
def _breathing_ghost(reflector: ReflectorSpec, spec: ScenarioSpec,
                     environment: Environment,
                     rng: np.random.Generator) -> SceneEntity | None:
    from repro.reflector import BreathingWaveform

    position = environment.panel.center + np.asarray(reflector.ghost_offset,
                                                     dtype=float)
    # Frame-coherent switching keeps the ghost's bin phase readable — the
    # vital-sign pipeline reads breathing off the phase (Fig. 14).
    controller = environment.make_controller(frame_coherent=True)
    waveform = BreathingWaveform(
        frequency=reflector.breathing_hz,
        wavelength=environment.radar_config.chirp.wavelength,
    )
    schedule = controller.plan_static_ghost(position, spec.duration_s,
                                            breathing=waveform, rng=rng)
    tag = environment.make_tag()
    tag.deploy(schedule)
    return tag


@dataclasses.dataclass(frozen=True)
class BuiltScenario:
    """A resolved scenario: environment, all radar configs, seeded content.

    Attributes:
        spec: the spec this was built from.
        environment: the primary deployment (room, radar 0, panel).
        radar_configs: every radar, primary first.
        seed: the base seed all content streams spawn from.
    """

    spec: ScenarioSpec
    environment: Environment
    radar_configs: tuple[RadarConfig, ...]
    seed: int

    def make_radars(self) -> tuple[FmcwRadar, ...]:
        """One :class:`FmcwRadar` per placement, primary first."""
        return tuple(FmcwRadar(config) for config in self.radar_configs)

    def _streams(self) -> list[np.random.Generator]:
        """Per-human RNG streams plus one trailing reflector stream.

        Spawned by *index* from one ``SeedSequence``, so each stream is
        independent of how many other humans are built and of any worker
        fan-out ordering.
        """
        children = np.random.SeedSequence(self.seed).spawn(
            len(self.spec.humans) + 1)
        return [np.random.default_rng(child) for child in children]

    def human_trajectories(self) -> tuple[Trajectory, ...]:
        """Each human's synthesized activity-program trace, in spec order."""
        streams = self._streams()
        floorplan = self.spec.floorplan
        return tuple(
            synthesize_program(
                human.program, self.environment.room,
                num_points=self.spec.num_points,
                duration=self.spec.duration_s,
                rng=streams[index], start=human.start,
                margin=floorplan.margin,
            )
            for index, human in enumerate(self.spec.humans)
        )

    def build_scene(self, *, include_clutter: bool = True) -> Scene:
        """The fully populated scene: clutter, humans, reflector, occlusion."""
        scene = self.environment.make_scene(include_clutter=include_clutter)
        scene.occlusion = self.spec.occlusion
        for human, trajectory in zip(self.spec.humans,
                                     self.human_trajectories()):
            kwargs: dict[str, Any] = {"rcs": human.rcs}
            if human.breathing is not None:
                kwargs["breathing"] = human.breathing
            scene.add_human(trajectory, **kwargs)
        strategy = REFLECTOR_STRATEGIES[self.spec.reflector.kind]
        entity = strategy(self.spec.reflector, self.spec, self.environment,
                          self._streams()[-1])
        if entity is not None:
            scene.add(entity)
        return scene


def build(scenario: str | ScenarioSpec, *,
          seed: int | None = None) -> BuiltScenario:
    """Resolve a scenario (by name or spec) into a :class:`BuiltScenario`.

    ``seed`` defaults to the spec's ``default_seed``; the same
    (spec, seed) pair always builds bit-identical content.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    environment = build_environment(spec)
    configs = (environment.radar_config,) + tuple(
        _extra_radar_config(environment, placement)
        for placement in spec.radars[1:]
    )
    return BuiltScenario(
        spec=spec, environment=environment, radar_configs=configs,
        seed=spec.default_seed if seed is None else seed,
    )
