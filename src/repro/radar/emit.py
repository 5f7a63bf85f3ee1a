"""Emit: a scene's propagation paths for whole sweeps, as packed columns.

Every frame of a sweep sees the same entities, so their deterministic
geometry — trajectory interpolation, polar coordinates, breathing, path
amplitudes, the tag's active commands and switching harmonics, occlusion —
is computed once per call as arrays over the concatenated frame times of
every request sharing the scene. Each entity describes its paths on that
grid as a :class:`SlotPlan`: one *slot* per direct path (a human's body
echo, one tag harmonic line, ...) plus which random draws the slot takes.
An entity raises its typed error from its plan, at the array check that
finds a bad input (a point at the array centre, a port or delay line the
hardware lacks), and a plan holding a direct path with a negative
distance, amplitude or delay fails ``PathComponent``'s check as soon as it
is built, so the first invalid entity in scene order fails the sweep
before any draw.

The random part is replayed on a **draw tape**: for each request, frame by
frame in time order, the request's own generator makes exactly the scalar
call sequence of the historical per-frame loop — RCS normal, Poisson bounce
count, bounce normal/normal/uniform, bounce phases, delay-tag dither, then
the frame's thermal noise written straight into the caller's cube — so a
seed reproduces bit for bit however requests are batched. Only runs of
same-distribution draws with nothing in between (a slot's bounce phases,
a frame's real and imaginary noise) merge into one sized call, which
yields the identical stream.

Components come out as a packed ``(6, C)`` float64 array whose rows follow
:class:`~repro.radar.frontend.PathComponent`'s fields (see the row
constants below, which every kernel reading the columns indexes them by)
plus per-frame counts, in the historical within-frame order: entities in
scene order, each slot followed by its bounces. :func:`emit_paths` is the
only way in: one frame is a sweep of one.

Row-wise 2-vector norms and dots go through stacked ``np.matmul``, which
reproduces the BLAS dot behind ``np.linalg.norm`` and 1-D ``@`` bit for
bit (``norm(axis=1)``, ``np.hypot`` and ``sqrt(x*x + y*y)`` do not).
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.frontend import PathComponent, thermal_noise

if TYPE_CHECKING:
    from repro.radar.scene import OcclusionSpec

__all__ = [
    "AMPLITUDE",
    "ANGLE",
    "BEAT_OFFSET",
    "DISTANCE",
    "EXTRA_DELAY",
    "Emission",
    "MIN_ANGLE",
    "NUM_ROWS",
    "PHASE_OFFSET",
    "Predraw",
    "SceneEntity",
    "SlotPlan",
    "emit_paths",
    "merge_runs",
    "polar_rows",
]

#: Rows of the packed component array, in ``PathComponent`` field order.
DISTANCE, ANGLE, AMPLITUDE, BEAT_OFFSET, PHASE_OFFSET, EXTRA_DELAY = range(6)
NUM_ROWS = 6

#: Rows ``PathComponent`` requires to be non-negative.
_CHECKED_ROWS = [DISTANCE, AMPLITUDE, EXTRA_DELAY]

MIN_ANGLE = 1e-3
TWO_PI = 2.0 * np.pi


class Predraw(enum.IntEnum):
    """The draw a slot takes before its multipath draws (if any)."""

    NONE = 0
    #: ``rng.standard_normal()`` — a human's RCS fluctuation.
    NORMAL = 1
    #: ``rng.uniform(0, 2 pi)`` — a delay-line tag's phase dither.
    UNIFORM = 2


@dataclasses.dataclass
class SlotPlan:
    """One entity's direct paths over a frame grid, before any draw.

    Attributes:
        counts: ``(F,)`` slots the entity contributes to each frame.
        columns: ``(6, S)`` direct-path rows, frame-major and in the
            entity's historical order within a frame. Entries that depend
            on the slot's predraw are filled in by ``finish``.
        predraw: the draw every slot of this entity takes first.
        multipath: ``(S,)`` slots the channel dresses with bounces (only
            honoured when the channel has multipath).
        finish: fills ``columns`` in place from the ``(S,)`` predraw values;
            ``columns`` is checked before the draws, so it must keep
            distance, amplitude and delay non-negative.
        body: ``(F, 2)`` positions of a body that shadows and is shadowed
            by other bodies under the scene's occlusion model.
    """

    counts: np.ndarray
    columns: np.ndarray
    predraw: Predraw = Predraw.NONE
    multipath: np.ndarray | None = None
    finish: Callable[[np.ndarray, np.ndarray], None] | None = None
    body: np.ndarray | None = None


@runtime_checkable
class SceneEntity(Protocol):
    """Anything that reflects radar energy: plans its paths over a grid.

    The RF-Protect tag implements the same protocol as a human, so the
    radar cannot tell them apart by construction.
    """

    def emission_plan(self, times: np.ndarray, array: UniformLinearArray,
                      channel: ChannelModel) -> SlotPlan:
        """This entity's :class:`SlotPlan` over frame ``times``.

        Raises the entity's typed error if any frame's input is invalid.
        """
        ...


@dataclasses.dataclass(frozen=True)
class Emission:
    """One request's emitted paths: packed columns plus per-frame counts."""

    columns: np.ndarray
    counts: np.ndarray


# --------------------------------------------------------------------------
# Geometry helpers shared by the entity plans
# --------------------------------------------------------------------------


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dots of an ``(n, 2)`` stack with ``(n, 2)`` rows or one
    ``(2,)`` vector, as the BLAS ``ddot`` behind 1-D ``@`` computes them."""
    other = b[:, :, None] if b.ndim == 2 else b[:, None]
    dots: np.ndarray = np.matmul(a[:, None, :], other)[:, 0, 0]
    return dots


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of an ``(n, 2)`` stack, bit for bit."""
    return np.sqrt(_row_dots(rows, rows))


def _clip_angle(angle: np.ndarray) -> np.ndarray:
    """Keep arrival angles off the array axis (``np.clip`` to the open range)."""
    return np.minimum(np.maximum(angle, MIN_ANGLE), np.pi - MIN_ANGLE)


def polar_rows(array: UniformLinearArray, points: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :meth:`UniformLinearArray.polar_of` with the angle clipped.

    Returns ``(distance, angle)``; the clipped angle is what every entity
    emits.

    Raises:
        ConfigurationError: a point sits at the array centre, as
            :meth:`~UniformLinearArray.angle_to` raises.
    """
    rel = points - array.position
    distance = _row_norms(rel)
    if (distance == 0).any():
        raise ConfigurationError("point coincides with the array center")
    cosine = _row_dots(rel, array.axis) / distance
    return distance, _clip_angle(np.arccos(np.minimum(np.maximum(
        cosine, -1.0), 1.0)))


def merge_runs(counts: Sequence[np.ndarray],
               ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Interleave frame-major runs of slots into one frame-major order.

    Run ``i`` contributes ``counts[i][f]`` consecutive slots to frame
    ``f``; within a frame the runs follow list order. Returns the per-frame
    totals and, for each run, the merged position of each of its slots.
    """
    if len(counts) == 1:
        return counts[0], [np.arange(int(counts[0].sum()))]
    stacked = np.stack(counts)
    num_runs, num_frames = stacked.shape
    # Each slot's frame, runs one after another: a stable sort by frame
    # is the merged order (runs stay in list order inside a frame).
    frames = np.repeat(np.tile(np.arange(num_frames), num_runs),
                       stacked.reshape(-1))
    order = np.argsort(frames, kind="stable")
    positions = np.empty(order.shape[0], dtype=np.int64)
    positions[order] = np.arange(order.shape[0])
    sizes = np.cumsum(stacked.sum(axis=1))[:-1]
    return stacked.sum(axis=0), np.split(positions, sizes)


# --------------------------------------------------------------------------
# The kernel
# --------------------------------------------------------------------------


def _occlusion_factors(bodies: list[tuple[int, np.ndarray]],
                       array: UniformLinearArray,
                       occlusion: "OcclusionSpec") -> dict[int, np.ndarray]:
    """Per-frame amplitude factor of each body shadowed by the others.

    A body blocks when its circle (``body_radius``) crosses the
    radar→subject segment strictly between the endpoints; each blocker
    multiplies in one ``attenuation_linear``. Pure geometry, no draws.
    """
    origin = array.position
    offsets = [body - origin for _, body in bodies]
    powers = [occlusion.attenuation_linear ** k for k in range(len(bodies))]
    factors: dict[int, np.ndarray] = {}
    for i, (entity_index, _) in enumerate(bodies):
        segment = offsets[i]
        length = _row_norms(segment)
        # A subject at the array centre fails emission before this is used.
        direction = segment / np.where(length > 0.0, length, 1.0)[:, None]
        blockers = np.zeros(length.shape[0], dtype=np.int64)
        for j, offset in enumerate(offsets):
            if j == i:
                continue
            along = _row_dots(offset, direction)
            lateral = _row_norms(offset - along[:, None] * direction)
            blockers += ((along > 0.0) & (along < length)
                         & (lateral < occlusion.body_radius))
        blockers[length <= 0.0] = 0
        factors[entity_index] = np.asarray(powers, dtype=float)[blockers]
    return factors


def emit_paths(entities: Sequence[SceneEntity], channel: ChannelModel,
               array: UniformLinearArray, times: Sequence[np.ndarray],
               rngs: Sequence[np.random.Generator | None], *,
               occlusion: "OcclusionSpec | None" = None,
               noise: Sequence[np.ndarray] | None = None,
               noise_std: float = 0.0) -> list[Emission]:
    """Emit every request sharing one scene in a single pass.

    Args:
        entities: the scene's entities, in scene order.
        channel: the scene's channel (path amplitudes, multipath).
        array: the sensing radar's array geometry.
        times: one frame-time array per request.
        rngs: one generator per request; its draws follow the historical
            per-frame sequence for that request's frames.
        occlusion: the scene's inter-person occlusion model, if any.
        noise: one preallocated ``(F_r, K, N)`` complex cube per request
            to receive its thermal noise, drawn after each frame's paths;
            ``None`` draws no noise.
        noise_std: per-sample noise deviation written into ``noise``.

    Returns:
        One :class:`Emission` per request (views into shared arrays).

    Raises:
        The typed error of the first entity, in scene order, whose plan
        finds an invalid input, before any draw: the entity's own check,
        or ``SignalProcessingError`` (``PathComponent``'s check) for a
        direct path with a negative distance, amplitude or delay. Bounces
        need no check of their own: they add a non-negative excess to
        their parent's distance, scale its amplitude by a non-negative
        factor and copy its delay.
    """
    frames_per_request = [int(np.shape(t)[0]) for t in times]
    grid = np.concatenate([np.asarray(t, dtype=float) for t in times])
    num_frames = grid.shape[0]
    plans = []
    for entity in entities:
        plan = entity.emission_plan(grid, array, channel)
        _check_components(plan.columns)
        plans.append(plan)

    multipath = (channel.multipath is not None
                 and channel.multipath.mean_paths != 0)
    if plans:
        per_frame, positions = merge_runs([plan.counts for plan in plans])
    else:
        per_frame, positions = np.zeros(num_frames, dtype=np.int64), []
    num_slots = int(per_frame.sum())
    codes = np.zeros(num_slots, dtype=np.int64)
    for plan, pos in zip(plans, positions):
        code = np.full(pos.shape[0], int(plan.predraw) << 1, dtype=np.int64)
        if multipath and plan.multipath is not None:
            code |= plan.multipath
        codes[pos] = code

    tape = _replay(codes, per_frame, frames_per_request, rngs, channel,
                   noise, noise_std)

    columns = np.empty((NUM_ROWS, num_slots), dtype=float)
    predrawn = np.flatnonzero(codes >> 1)
    for plan, pos in zip(plans, positions):
        if plan.finish is not None and plan.predraw:
            plan.finish(plan.columns,
                        tape.predraws[np.searchsorted(predrawn, pos)])
        columns[:, pos] = plan.columns

    bounce_slots = np.flatnonzero(codes & 1)
    bounce_counts = tape.bounce_counts
    parents = np.repeat(bounce_slots, bounce_counts)
    bounces = columns[:, parents]
    if parents.shape[0]:
        (bounces[DISTANCE], bounces[ANGLE],
         bounces[AMPLITUDE]) = channel.bounce_paths(
            bounces[DISTANCE], bounces[ANGLE], bounces[AMPLITUDE],
            tape.bounce_draws)
        bounces[PHASE_OFFSET] += tape.bounce_phases

    if occlusion is not None:
        bodies = [(i, plan.body) for i, plan in enumerate(plans)
                  if plan.body is not None]
        factors = _occlusion_factors(bodies, array, occlusion)
        slot_factor = np.ones(num_slots, dtype=float)
        for i, factor in factors.items():
            slot_factor[positions[i]] = np.repeat(factor, plans[i].counts)
        columns[AMPLITUDE] *= slot_factor
        bounces[AMPLITUDE] *= slot_factor[parents]

    per_slot = np.ones(num_slots, dtype=np.int64)
    per_slot[bounce_slots] += bounce_counts
    slot_end = np.cumsum(per_slot)
    main_at = slot_end - per_slot
    packed = np.empty((NUM_ROWS, int(slot_end[-1]) if num_slots else 0),
                      dtype=float)
    packed[:, main_at] = columns
    first_bounce = np.cumsum(bounce_counts) - bounce_counts
    packed[:, np.repeat(main_at[bounce_slots] + 1 - first_bounce,
                        bounce_counts)
           + np.arange(parents.shape[0])] = bounces

    frame_end = np.concatenate(([0], np.cumsum(per_frame)))
    component_end = np.concatenate(([0], slot_end))[frame_end]
    counts = np.diff(component_end)
    emissions = []
    start = 0
    for size in frames_per_request:
        lo, hi = int(component_end[start]), int(component_end[start + size])
        emissions.append(Emission(packed[:, lo:hi], counts[start:start + size]))
        start += size
    return emissions


def _check_components(columns: np.ndarray) -> None:
    """``PathComponent``'s invariants over an entity's direct paths."""
    negative = (columns[_CHECKED_ROWS] < 0).any(axis=0)
    if negative.any():
        PathComponent(*columns[:, int(np.argmax(negative))].tolist())


@dataclasses.dataclass
class _Tape:
    """What the generators drew, in global slot order."""

    predraws: np.ndarray
    bounce_counts: np.ndarray
    bounce_draws: np.ndarray
    bounce_phases: np.ndarray


def _replay(codes: np.ndarray, per_frame: np.ndarray,
            frames_per_request: Sequence[int],
            rngs: Sequence[np.random.Generator | None],
            channel: ChannelModel, noise: Sequence[np.ndarray] | None,
            noise_std: float) -> _Tape:
    """Drive each request's generator through the historical call sequence.

    Slot codes are ``predraw << 1 | multipath``; slots without draws are
    skipped. After each frame's slots, the frame's thermal noise is drawn
    into the request's cube.
    """
    drawing = np.flatnonzero(codes)
    slot_frame = np.repeat(np.arange(per_frame.shape[0]), per_frame)
    bounds = np.searchsorted(slot_frame[drawing],
                             np.arange(per_frame.shape[0] + 1)).tolist()
    frame_codes = codes[drawing].tolist()
    draw_bounces = channel.draw_bounces
    predraws: list[float] = []
    bounce_counts: list[int] = []
    bounce_draws: list[float] = []
    bounce_phases: list[float] = []
    frame = 0
    for request, size in enumerate(frames_per_request):
        rng = rngs[request]
        cube = noise[request] if noise is not None else None
        if rng is None:
            if cube is not None or bounds[frame] != bounds[frame + size]:
                raise ConfigurationError(
                    "emitting this scene needs a random generator")
            frame += size
            continue
        for local in range(size):
            for code in frame_codes[bounds[frame]:bounds[frame + 1]]:
                if code & 2:
                    predraws.append(rng.standard_normal())
                elif code & 4:
                    predraws.append(rng.uniform(0.0, TWO_PI))
                if code & 1:
                    count = draw_bounces(rng, bounce_draws)
                    bounce_counts.append(count)
                    if count:
                        bounce_phases.extend(
                            rng.uniform(0.0, TWO_PI, count).tolist())
            if cube is not None:
                thermal_noise(noise_std, rng, cube[local])
            frame += 1
    return _Tape(
        predraws=np.asarray(predraws, dtype=float),
        bounce_counts=np.asarray(bounce_counts, dtype=np.int64),
        bounce_draws=np.asarray(bounce_draws, dtype=float).reshape(-1, 3),
        bounce_phases=np.asarray(bounce_phases, dtype=float),
    )
