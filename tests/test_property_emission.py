"""Property wall: the array Emit kernel against the per-frame oracle.

Random scenes mix all five entity kinds — breathing humans, statics, fans,
RF-Protect tags with several schedules and frames before, inside and
after them, delay-line tags with and without phase dither — under
occlusion on/off, multipath off / ``mean_paths=0`` / on, and noise off/on,
over 2-frame and long sweeps. Batches of 1-8 requests over 1-3 scenes are
emitted the way the serving engine does (one kernel call per scene) and
must match the per-frame oracle exactly: the six component columns and
the noise cube compared as uint64 bit patterns, the per-frame counts, and
every generator's final ``bit_generator.state``. Inputs the per-frame path
rejects (a bad antenna port, a delay line off the bank, a point at the
array centre) must raise the error type of the first invalid entity in
scene order, before any draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    ReflectorError,
    SignalProcessingError,
)
from repro.geometry import Rectangle
from repro.radar import FmcwRadar, RadarConfig, Scene
from repro.radar.channel import ChannelModel, MultipathSpec
from repro.radar.emit import emit_paths
from repro.radar.scene import (
    BreathingSpec,
    Fan,
    HumanTarget,
    OcclusionSpec,
    StaticReflector,
)
from repro.reflector.controller import SpoofCommand, SpoofSchedule
from repro.reflector.delay_tag import (
    DelayLineCommand,
    DelayLineSchedule,
    DelayLineTag,
)
from repro.reflector.panel import ReflectorPanel
from repro.reflector.tag import RfProtectTag
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory
from tests import emission_oracle as oracle
from tests.receive_oracle import emit_frame

CONFIG = RadarConfig(chirp=ChirpConfig(duration=3.2e-5), num_antennas=3,
                     position=(4.0, 0.0), facing_angle=np.pi / 2.0)
RADAR = FmcwRadar(CONFIG)
ARRAY = RADAR.array
FRAME_SHAPE = CONFIG.frame_shape

coords = st.floats(0.2, 7.8, allow_nan=False)
points = st.tuples(coords, st.floats(0.5, 7.8, allow_nan=False))


@st.composite
def humans(draw: st.DrawFn) -> HumanTarget:
    path = draw(st.lists(points, min_size=2, max_size=5))
    breathing = BreathingSpec(
        amplitude=draw(st.floats(0.0, 0.01)),
        frequency=draw(st.floats(0.1, 1.0)),
        phase=draw(st.floats(0.0, 6.0)))
    return HumanTarget(Trajectory(np.array(path), dt=draw(st.floats(0.2, 1.0))),
                       rcs=draw(st.floats(0.1, 3.0)),
                       rcs_fluctuation=draw(st.floats(0.0, 0.9)),
                       breathing=breathing)


@st.composite
def statics(draw: st.DrawFn) -> StaticReflector:
    return StaticReflector(draw(points), rcs=draw(st.floats(0.1, 5.0)))


@st.composite
def fans(draw: st.DrawFn) -> Fan:
    return Fan(draw(points), blade_radius=draw(st.floats(0.1, 0.5)),
               rotation_hz=draw(st.floats(0.2, 3.0)),
               rcs=draw(st.floats(0.1, 1.0)))


PANEL = ReflectorPanel((4.0, 1.0))


def _command_times(draw: st.DrawFn) -> tuple[list[float], float]:
    """Command times placed so sweeps start before, inside, or after them."""
    interval = draw(st.sampled_from([0.05, 0.1, 0.25]))
    start = draw(st.floats(-0.5, 2.5))
    count = draw(st.integers(1, 12))
    return [start + k * interval for k in range(count)], interval


@st.composite
def spoof_schedules(draw: st.DrawFn, ports: int) -> SpoofSchedule:
    times, interval = _command_times(draw)
    commands = [SpoofCommand(
        time=t, antenna_index=draw(st.integers(0, ports - 1)),
        switch_frequency=draw(st.floats(0.0, 4e5)),
        phase_shift=draw(st.floats(-3.0, 3.0)),
        ghost_position=(0.0, 0.0),
        amplitude_scale=draw(st.floats(0.2, 2.0))) for t in times]
    return SpoofSchedule(commands, command_interval=interval)


@st.composite
def tags(draw: st.DrawFn, ports: int = PANEL.num_antennas) -> RfProtectTag:
    tag = RfProtectTag(PANEL)
    for schedule in draw(st.lists(spoof_schedules(ports), min_size=0,
                                  max_size=3)):
        tag.deploy(schedule)
    return tag


@st.composite
def delay_schedules(draw: st.DrawFn, ports: int,
                    lines: int) -> DelayLineSchedule:
    times, interval = _command_times(draw)
    commands = [DelayLineCommand(
        time=t, antenna_index=draw(st.integers(0, ports - 1)),
        line_index=draw(st.integers(0, lines - 1)),
        ghost_position=(0.0, 0.0)) for t in times]
    return DelayLineSchedule(commands, command_interval=interval)


@st.composite
def delay_tags(draw: st.DrawFn, ports: int = PANEL.num_antennas,
               lines: int = 32) -> DelayLineTag:
    tag = DelayLineTag(PANEL, phase_dither=draw(st.booleans()))
    for schedule in draw(st.lists(delay_schedules(ports, lines), min_size=0,
                                  max_size=3)):
        tag.deploy(schedule)
    return tag


multipaths = st.one_of(
    st.none(),
    st.just(MultipathSpec(mean_paths=0.0)),
    st.builds(MultipathSpec, mean_paths=st.floats(0.3, 3.0)),
)
occlusions = st.one_of(
    st.none(),
    st.builds(OcclusionSpec, body_radius=st.floats(0.1, 1.5),
              attenuation_db=st.floats(0.0, 12.0)),
)


@st.composite
def scenes(draw: st.DrawFn, entity_kinds: st.SearchStrategy = st.one_of(
        humans(), statics(), fans(), tags(), delay_tags())) -> Scene:
    scene = Scene(Rectangle.from_size(8.0, 8.0),
                  channel=ChannelModel(multipath=draw(multipaths)),
                  occlusion=draw(occlusions))
    for entity in draw(st.lists(entity_kinds, min_size=0, max_size=6)):
        scene.add(entity)
    return scene


@st.composite
def sweeps(draw: st.DrawFn) -> np.ndarray:
    duration = draw(st.sampled_from([0.1, 0.4, 1.3, 3.0]))
    return RADAR.frame_times(duration, draw(st.floats(0.0, 2.0)))


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _emit_batch(scene_list: list[Scene],
                batch: list[tuple[int, int, np.ndarray]], noise_std: float):
    """Emit ``batch`` like the serving engine: one kernel call per scene."""
    rngs = [np.random.default_rng(seed) for _, seed, _ in batch]
    cubes = [np.empty((len(times), *FRAME_SHAPE), dtype=complex)
             for _, _, times in batch]
    results: dict[int, object] = {}
    for index, scene in enumerate(scene_list):
        members = [i for i, item in enumerate(batch) if item[0] == index]
        if not members:
            continue
        emitted = emit_paths(
            scene.entities, scene.channel, ARRAY,
            [batch[i][2] for i in members], [rngs[i] for i in members],
            occlusion=scene.occlusion,
            noise=[cubes[i] for i in members] if noise_std > 0 else None,
            noise_std=noise_std)
        results.update(zip(members, emitted))
    return [results[i] for i in range(len(batch))], cubes, rngs


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scene_list=st.lists(scenes(), min_size=1, max_size=3),
       requests=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**31),
                                   sweeps()), min_size=1, max_size=8),
       noise_std=st.sampled_from([0.0, 5e-4]))
def test_batched_emission_matches_per_frame_oracle(scene_list, requests,
                                                   noise_std):
    batch = [(index % len(scene_list), seed, times)
             for index, seed, times in requests]
    emissions, cubes, rngs = _emit_batch(scene_list, batch, noise_std)
    for (index, seed, times), emission, cube, rng in zip(batch, emissions,
                                                         cubes, rngs):
        reference_rng = np.random.default_rng(seed)
        columns, counts, noise = oracle.emit_sweep(
            scene_list[index], times, ARRAY, reference_rng, noise_std,
            FRAME_SHAPE)
        _assert_bits_equal(emission.columns, columns)
        assert emission.counts.tolist() == counts.tolist()
        if noise_std > 0:
            _assert_bits_equal(cube, noise)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scene=scenes(), t=st.floats(-1.0, 6.0), seed=st.integers(0, 2**31))
def test_one_frame_forms_match_oracle(scene, t, seed):
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    assert (emit_frame(scene.entities, t, ARRAY, scene.channel, rng,
                       scene.occlusion)
            == oracle.frame_components(scene, t, ARRAY, reference_rng))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    for entity in scene.entities:
        assert (emit_frame([entity], t, ARRAY, scene.channel, rng)
                == oracle.entity_components(entity, t, ARRAY, scene.channel,
                                            reference_rng))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _error_type(call) -> type[BaseException] | None:
    try:
        call()
    except Exception as error:  # the type is what is compared
        return type(error)
    return None


def _breathing_into_the_array() -> HumanTarget:
    """A still human 3 mm in front of the array centre whose 5-mm breath
    carries its body echo to a negative distance from t = 0.4 s on."""
    spot = (CONFIG.position[0], CONFIG.position[1] + 0.003)
    return HumanTarget(Trajectory(np.array([spot, spot]), dt=1.0),
                       breathing=BreathingSpec(amplitude=0.005,
                                               phase=np.pi))


bad_entities = st.one_of(
    # Ports past the SP8T switch, or past the 6-antenna panel.
    tags(ports=10), delay_tags(ports=10),
    # Delay lines past the bank.
    delay_tags(lines=40),
    # A reflector (or a walk) through the array centre.
    st.just(StaticReflector(CONFIG.position)),
    st.builds(lambda dt: HumanTarget(Trajectory(
        np.array([[4.0, 2.0], CONFIG.position, [4.0, 3.0]]), dt=dt)),
        st.sampled_from([0.1, 0.2, 0.4])),
    # A path at a negative distance.
    st.builds(_breathing_into_the_array),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scene=scenes(st.one_of(humans(), statics(), fans(), tags(),
                              delay_tags(), bad_entities)),
       times=sweeps(), seed=st.integers(0, 2**31))
def test_rejected_inputs_raise_the_first_entitys_error_type(scene, times,
                                                            seed):
    def kernel():
        emit_paths(scene.entities, scene.channel, ARRAY, [times],
                   [np.random.default_rng(seed)], occlusion=scene.occlusion)

    def first_entity_error() -> type[BaseException] | None:
        """The per-frame oracle's error for the first entity, in scene
        order, whose sweep raises when emitted alone."""
        for entity in scene.entities:
            alone = Scene(scene.room, channel=scene.channel)
            alone.add(entity)
            error = _error_type(lambda: oracle.emit_sweep(
                alone, times, ARRAY, np.random.default_rng(seed), 0.0,
                FRAME_SHAPE))
            if error is not None:
                return error
        return None

    assert _error_type(kernel) == first_entity_error()


def _port_nine_tag(start: float) -> RfProtectTag:
    """A tag commanding SP8T port 9 from ``start`` on."""
    tag = RfProtectTag(PANEL)
    tag.deploy(SpoofSchedule([SpoofCommand(start, 9, 1e4, 0.0, (0.0, 0.0))],
                             command_interval=1.0))
    return tag


def test_array_centre_and_port_errors_are_typed():
    scene = Scene(Rectangle.from_size(8.0, 8.0))
    scene.add(StaticReflector(CONFIG.position))
    with pytest.raises(ConfigurationError):
        RADAR.sense(scene, 0.2)
    scene = Scene(Rectangle.from_size(8.0, 8.0))
    scene.add(_port_nine_tag(0.0))
    with pytest.raises(ReflectorError):
        RADAR.sense(scene, 0.2)


def test_first_invalid_entity_in_scene_order_wins():
    """The tag's bad port fails the sweep although the centred static
    fails at an earlier frame: scene order decides, not frame order."""
    scene = Scene(Rectangle.from_size(8.0, 8.0))
    scene.add(_port_nine_tag(0.15))
    scene.add(StaticReflector(CONFIG.position))
    with pytest.raises(ReflectorError):
        RADAR.sense(scene, 0.5)


def test_negative_path_is_checked_in_scene_order():
    """A human whose breath reaches a negative distance fails the sweep
    before the centred static after it, although its path is only
    negative from t = 0.4 s on and the static fails at every frame."""
    scene = Scene(Rectangle.from_size(8.0, 8.0))
    scene.add(_breathing_into_the_array())
    scene.add(StaticReflector(CONFIG.position))
    with pytest.raises(SignalProcessingError, match="distance"):
        RADAR.sense(scene, 1.0)
