"""Per-frame emission oracle: the historical Emit bodies, one frame at a time.

Production emission (:mod:`repro.radar.emit`) computes a scene's geometry
once per batch as arrays and replays each request's generator on a draw
tape. This module keeps the per-frame code it replaced — each entity kind
queried frame by frame in scene order, drawing scalars from the generator
as it goes, then the frame's thermal noise as ``a + 1j * b`` — so the
equivalence suites can pin the kernel to it bit for bit: the same six
component columns, per-frame counts, noise cube, and final generator state.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.frontend import PathComponent
from repro.radar.scene import Fan, HumanTarget, Scene, StaticReflector
from repro.reflector.delay_tag import DelayLineTag
from repro.reflector.tag import RfProtectTag

_MIN_ANGLE = 1e-3


def sample_multipath(channel: ChannelModel, distance: float, angle: float,
                     amplitude: float, rng: np.random.Generator,
                     ) -> list[tuple[float, float, float]]:
    """Secondary (distance, angle, amplitude) bounces for one path."""
    if channel.multipath is None or channel.multipath.mean_paths == 0:
        return []
    spec = channel.multipath
    count = int(rng.poisson(spec.mean_paths))
    bounces = []
    for _ in range(count):
        excess = abs(rng.normal(spec.excess_distance_mean,
                                spec.excess_distance_std))
        bounce_angle = angle + rng.normal(0.0, spec.angle_spread)
        bounce_angle = float(np.clip(bounce_angle, 1e-3, np.pi - 1e-3))
        bounce_amp = amplitude * spec.relative_amplitude * rng.uniform(0.5, 1.0)
        bounces.append((distance + excess, bounce_angle, bounce_amp))
    return bounces


def _polar(array: UniformLinearArray,
           point: np.ndarray) -> tuple[float, float]:
    return array.range_to(point), array.angle_to(point)


def _amplitude(channel: ChannelModel, distance: float, rcs: float) -> float:
    """The radar equation on scalars, as the per-frame path evaluated it."""
    d = np.maximum(np.asarray(distance, dtype=float), 1e-3)
    scale = channel.reference_amplitude * channel.reference_distance ** 2
    return float(scale * np.sqrt(np.asarray(rcs, dtype=float)) / d ** 2)


def _human(human: HumanTarget, t: float, array: UniformLinearArray,
           channel: ChannelModel,
           rng: np.random.Generator) -> list[PathComponent]:
    position = human.position_at(t)
    distance, angle = _polar(array, position)
    angle = float(np.clip(angle, _MIN_ANGLE, np.pi - _MIN_ANGLE))
    breathing = human.breathing
    distance += breathing.amplitude * np.sin(
        2.0 * np.pi * breathing.frequency * t + breathing.phase)
    rcs = human.rcs * (1.0 + human.rcs_fluctuation * rng.standard_normal())
    rcs = max(rcs, 0.05 * human.rcs)
    amplitude = _amplitude(channel, distance, rcs)
    components = [PathComponent(distance, angle, amplitude)]
    for bounce_distance, bounce_angle, bounce_amp in sample_multipath(
            channel, distance, angle, amplitude, rng):
        components.append(
            PathComponent(bounce_distance, bounce_angle, bounce_amp,
                          phase_offset=float(rng.uniform(0.0, 2.0 * np.pi)))
        )
    return components


def _static(static: StaticReflector, t: float, array: UniformLinearArray,
            channel: ChannelModel,
            rng: np.random.Generator) -> list[PathComponent]:
    distance, angle = _polar(array, static.position)
    angle = float(np.clip(angle, _MIN_ANGLE, np.pi - _MIN_ANGLE))
    amplitude = _amplitude(channel, distance, static.rcs)
    return [PathComponent(distance, angle, amplitude)]


def _fan(fan: Fan, t: float, array: UniformLinearArray,
         channel: ChannelModel,
         rng: np.random.Generator) -> list[PathComponent]:
    phase = 2.0 * np.pi * fan.rotation_hz * t
    blade = fan.position + fan.blade_radius * np.array(
        [np.cos(phase), np.sin(phase)])
    distance, angle = _polar(array, blade)
    angle = float(np.clip(angle, _MIN_ANGLE, np.pi - _MIN_ANGLE))
    amplitude = _amplitude(channel, distance, fan.rcs)
    return [PathComponent(distance, angle, amplitude)]


def _tag(tag: RfProtectTag, t: float, array: UniformLinearArray,
         channel: ChannelModel,
         rng: np.random.Generator) -> list[PathComponent]:
    components: list[PathComponent] = []
    for schedule in tag.schedules:
        times = [c.time for c in schedule.commands]
        if t < schedule.start_time or t >= schedule.end_time:
            continue
        index = int(np.searchsorted(times, t, side="right")) - 1
        command = schedule.commands[max(index, 0)]
        antenna = tag.panel.antenna_position(
            tag.antenna_switch.check_port(command.antenna_index)
        )
        distance, angle = _polar(array, antenna)
        angle = float(np.clip(angle, _MIN_ANGLE, np.pi - _MIN_ANGLE))
        amplitude = _amplitude(channel, distance, tag.effective_rcs)
        amplitude *= command.amplitude_scale
        commanded_phase = float(tag.phase_shifter.quantize(command.phase_shift))
        switching_phase = 2.0 * np.pi * command.switch_frequency * t
        for harmonic in tag.switch.harmonics():
            line_amplitude = amplitude * harmonic.amplitude
            line_offset = harmonic.order * command.switch_frequency
            line_phase = (harmonic.order * switching_phase
                          + harmonic.phase + commanded_phase)
            components.append(PathComponent(
                distance=distance, angle=angle, amplitude=line_amplitude,
                beat_offset_hz=line_offset, phase_offset=line_phase,
            ))
            if abs(harmonic.order) != 1:
                continue
            for bounce_distance, bounce_angle, bounce_amp in sample_multipath(
                    channel, distance, angle, line_amplitude, rng):
                components.append(PathComponent(
                    distance=bounce_distance, angle=bounce_angle,
                    amplitude=bounce_amp, beat_offset_hz=line_offset,
                    phase_offset=(line_phase
                                  + float(rng.uniform(0.0, 2.0 * np.pi))),
                ))
    return components


def _delay_tag(tag: DelayLineTag, t: float, array: UniformLinearArray,
               channel: ChannelModel,
               rng: np.random.Generator) -> list[PathComponent]:
    components: list[PathComponent] = []
    for schedule in tag.schedules:
        if t < schedule.start_time or t >= schedule.end_time:
            continue
        times = [c.time for c in schedule.commands]
        index = int(np.searchsorted(times, t, side="right")) - 1
        command = schedule.commands[max(index, 0)]
        antenna = tag.panel.antenna_position(
            tag.antenna_switch.check_port(command.antenna_index)
        )
        distance, angle = _polar(array, antenna)
        angle = float(np.clip(angle, _MIN_ANGLE, np.pi - _MIN_ANGLE))
        amplitude = _amplitude(channel, distance, tag.effective_rcs)
        dither = (float(rng.uniform(0.0, 2.0 * np.pi))
                  if tag.phase_dither else 0.0)
        components.append(PathComponent(
            distance=distance, angle=angle, amplitude=amplitude,
            extra_delay_s=tag.line_delay(command.line_index),
            phase_offset=dither,
        ))
    return components


_KINDS = ((HumanTarget, _human), (StaticReflector, _static), (Fan, _fan),
          (RfProtectTag, _tag), (DelayLineTag, _delay_tag))


def entity_components(entity: object, t: float, array: UniformLinearArray,
                      channel: ChannelModel,
                      rng: np.random.Generator) -> list[PathComponent]:
    """One entity's paths at ``t`` (no occlusion), drawing from ``rng``."""
    for kind, body in _KINDS:
        if isinstance(entity, kind):
            return body(entity, t, array, channel, rng)  # type: ignore[operator]
    raise TypeError(f"no oracle for {type(entity).__name__}")


def occlusion_factor(scene: Scene, entity: HumanTarget, t: float,
                     array: UniformLinearArray) -> float:
    """Amplitude factor for ``entity`` given who stands in its way."""
    assert scene.occlusion is not None
    subject = entity.position_at(t)
    origin = array.position
    segment = subject - origin
    length = float(np.linalg.norm(segment))
    if length <= 0.0:
        return 1.0
    direction = segment / length
    blockers = 0
    for other in scene.entities:
        if other is entity or not isinstance(other, HumanTarget):
            continue
        offset = other.position_at(t) - origin
        along = float(offset @ direction)
        if not 0.0 < along < length:
            continue
        lateral = float(np.linalg.norm(offset - along * direction))
        if lateral < scene.occlusion.body_radius:
            blockers += 1
    return scene.occlusion.attenuation_linear ** blockers


def frame_components(scene: Scene, t: float, array: UniformLinearArray,
                     rng: np.random.Generator) -> list[PathComponent]:
    """All paths of ``scene`` at ``t``, occlusion applied, in scene order."""
    components: list[PathComponent] = []
    for entity in scene.entities:
        paths = entity_components(entity, t, array, scene.channel, rng)
        if scene.occlusion is not None and isinstance(entity, HumanTarget):
            factor = occlusion_factor(scene, entity, t, array)
            if factor < 1.0:
                paths = [dataclasses.replace(c, amplitude=c.amplitude * factor)
                         for c in paths]
        components.extend(paths)
    return components


def emit_sweep(scene: Scene, times: np.ndarray, array: UniformLinearArray,
               rng: np.random.Generator, noise_std: float,
               frame_shape: tuple[int, int],
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The historical sweep loop: paths then noise, frame by frame.

    Returns the packed ``(6, C)`` columns, the per-frame counts, and the
    ``(F, K, N)`` noise stack (``None`` when ``noise_std`` is zero).
    """
    per_frame: list[list[PathComponent]] = []
    noise: list[np.ndarray] = []
    scale = noise_std / np.sqrt(2.0)
    for t in times:
        per_frame.append(frame_components(scene, float(t), array, rng))
        if noise_std > 0:
            noise.append(rng.normal(0.0, scale, frame_shape)
                         + 1j * rng.normal(0.0, scale, frame_shape))
    flat = [c for frame in per_frame for c in frame]
    columns = np.array([[c.distance, c.angle, c.amplitude, c.beat_offset_hz,
                         c.phase_offset, c.extra_delay_s] for c in flat],
                       dtype=float).reshape(-1, 6).T
    counts = np.array([len(frame) for frame in per_frame], dtype=np.int64)
    return columns, counts, (np.stack(noise) if noise else None)
