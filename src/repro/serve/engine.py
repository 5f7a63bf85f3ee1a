"""Batch execution: a key-homogeneous group of requests -> sensing results.

This is the synchronous compute half of the service (the scheduler half
lives in :mod:`repro.serve.service`); workers call :func:`execute_batch`
from the executor thread pool. The fused path rides the PR 1/PR 3
vectorized engines end to end:

1. **Emission** — requests are grouped by scene object and each group is
   emitted in one :func:`~repro.radar.emit.emit_paths` pass: the scene's
   geometry is computed once over every member's frames, while each
   request's draws and thermal noise come from its *own* seeded generator
   in the exact order of a direct ``FmcwRadar.sense`` call, so batching
   can never perturb a request's random stream. Noise lands straight in
   the batch's frame cube.
2. **Fused synthesis** — all requests' packed paths go through *one*
   :func:`~repro.radar.batch.synthesize_packed` call: one beat/carrier/
   steering pass, per-frame contractions that each read only their own
   slice, added into the noise cube.
3. **Fused receive** — one blocked range FFT over the concatenated cube,
   one shared range-crop mask (equal ``BatchKey`` guarantees equal crop),
   one shifted-difference background subtraction with each request's first
   frame re-zeroed (frame 0 of a request has no predecessor — exactly the
   reference warmup), and one cube-wide lag-vector pass. Only the final
   thin GEMM (:func:`~repro.radar.pipeline.beamform_from_lags_stacked`)
   keeps per-request shape: requests with equal frame counts share one
   stacked matmul whose slices are exactly the per-request GEMMs, so every
   output has shapes that depend only on the request itself — results are
   bitwise independent of how the scheduler grouped them.

The fused passes are bound as explicit kernels of the stage graph
(:mod:`repro.radar.stages`) and run through the same instrumented
executor as every direct ``sense`` call, so served batches show up in the
identical per-stage wall-time histograms.

If anything in the fused path raises, :func:`execute_batch` retries each
request alone as a direct ``FmcwRadar.sense`` — the same production
kernels, pinned bitwise to the fused path — so the batch-mates of a
poisoned request still get exactly the bits a fault-free batch gives them,
and the poisoned request alone fails, with a typed
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from collections.abc import Sequence

import numpy as np

from repro.errors import ReproError, ServeError
from repro.radar.batch import synthesize_packed
from repro.radar.config import RadarConfig
from repro.radar.emit import Emission, emit_paths
from repro.radar.pipeline import (
    SweepProcessingResult,
    batched_background_subtract,
    batched_lag_vectors,
    batched_range_profiles,
    beamform_from_lags_stacked,
)
from repro.radar.processing import ZERO_PAD_FACTOR, range_keep_mask
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.stages import ExecutionContext, Stage, StageBinding, execute
from repro.serve.request import (
    BACKEND_ISOLATED,
    BACKEND_VECTORIZED,
    BatchKey,
    SenseRequest,
)
from repro.signal.spectral import range_axis

__all__ = [
    "ExecutionItem",
    "ExecutionOutcome",
    "execute_batch",
    "radar_for",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class ExecutionItem:
    """One admitted request handed to the execution engine."""

    request_id: int
    request: SenseRequest
    key: BatchKey


@dataclasses.dataclass(frozen=True)
class ExecutionOutcome:
    """What the engine produced for one item: a result or an error."""

    request_id: int
    result: SensingResult | None
    backend: str
    error: BaseException | None = None


@functools.lru_cache(maxsize=64)
def radar_for(config: RadarConfig) -> FmcwRadar:
    """A shared radar facade per distinct configuration.

    ``FmcwRadar`` is immutable after construction (config + array
    geometry), so one instance can serve every request and executor thread
    with that configuration; caching it keeps per-request admission cheap
    and reuses the array's process-wide steering/taper/lag-basis memos.
    """
    return FmcwRadar(config)


def _fused_emit(ctx: ExecutionContext) -> None:
    """Emit every request, one pass per distinct scene.

    Geometry is shared by the requests of a scene; draws are not — each
    request replays its own seeded generator in the exact order of a
    direct ``FmcwRadar.sense`` call, so batching can never perturb a
    request's random stream. Noise is drawn into the batch's cube.
    """
    radar: FmcwRadar = ctx.workspace["radar"]
    items = ctx.workspace["items"]
    config = ctx.config
    grids: dict[tuple[float, float], np.ndarray] = {}
    times_list = []
    for item in items:
        grid = (item.request.duration, item.request.start_time)
        if grid not in grids:
            grids[grid] = radar.frame_times(*grid)
        times_list.append(grids[grid])
    frame_counts = [len(times) for times in times_list]
    offsets = np.concatenate(([0], np.cumsum(frame_counts))).tolist()
    noise: np.ndarray | None = None
    if config.noise_std > 0:
        noise = np.empty((offsets[-1], *config.frame_shape), dtype=complex)
    by_scene: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_scene.setdefault(id(item.request.scene), []).append(i)
    emissions: dict[int, Emission] = {}
    for members in by_scene.values():
        scene = items[members[0]].request.scene
        emitted = emit_paths(
            scene.entities, scene.channel, radar.array,
            [times_list[i] for i in members],
            [np.random.default_rng(items[i].request.seed) for i in members],
            occlusion=scene.occlusion,
            noise=(None if noise is None else
                   [noise[offsets[i]:offsets[i + 1]] for i in members]),
            noise_std=config.noise_std)
        emissions.update(zip(members, emitted))
    ordered = [emissions[i] for i in range(len(items))]
    ctx.workspace["components"] = Emission(
        np.concatenate([e.columns for e in ordered], axis=1),
        np.concatenate([e.counts for e in ordered]))
    ctx.workspace["noise"] = noise
    ctx.workspace["times_list"] = times_list
    ctx.workspace["frame_counts"] = frame_counts
    ctx.times = np.concatenate(times_list)


def _fused_synthesize(ctx: ExecutionContext) -> None:
    """One packed synthesis pass over every request's paths."""
    emission: Emission = ctx.workspace["components"]
    ctx.workspace["frames"] = synthesize_packed(
        emission.columns, emission.counts, ctx.config, ctx.array,
        out=ctx.workspace["noise"])


def _fused_range_fft(ctx: ExecutionContext) -> None:
    """One blocked range FFT over the concatenated beat cube.

    The beat cube (the emitted noise cube with the tones added in) is
    dropped from the workspace here: nothing downstream reads it, and a
    worker holding it through Beamform raises the service's peak memory.
    """
    frames = ctx.workspace.pop("frames")
    del ctx.workspace["noise"]
    ctx.workspace["raw_profiles"] = batched_range_profiles(frames,
                                                           ctx.config)
    ctx.workspace["ranges_full"] = range_axis(
        ctx.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR
    )


def _fused_subtract(ctx: ExecutionContext) -> None:
    """Shared crop + shifted difference with request boundaries re-zeroed."""
    keep = range_keep_mask(ctx.workspace["ranges_full"],
                           min_range=ctx.min_range, max_range=ctx.max_range)
    ranges = ctx.workspace["ranges_full"][keep]
    ranges.flags.writeable = False
    ctx.workspace["keep"] = keep
    ctx.workspace["ranges"] = ranges
    kept_profiles = np.ascontiguousarray(
        ctx.workspace["raw_profiles"][:, :, keep]
    )
    subtracted = batched_background_subtract(kept_profiles)
    # A request's first frame has no predecessor inside *its* sweep; the
    # cube-wide shifted difference must not leak the previous request's
    # last frame across the boundary.
    frame_counts = ctx.workspace["frame_counts"]
    starts = np.cumsum([0, *frame_counts[:-1]])
    subtracted[starts] = 0.0
    ctx.workspace["subtracted"] = subtracted


def _fused_beamform(ctx: ExecutionContext) -> None:
    """Cube-wide lag vectors, then per-request-shaped stacked GEMMs."""
    radar: FmcwRadar = ctx.workspace["radar"]
    angles = ctx.config.angle_grid()
    angles.flags.writeable = False
    ranges = ctx.workspace["ranges"]
    frame_counts = ctx.workspace["frame_counts"]

    lag_vectors = batched_lag_vectors(ctx.workspace["subtracted"],
                                      radar.array)

    num_bins = int(ranges.shape[0])
    num_angles = int(angles.shape[0])

    # Per-request-shaped GEMMs: each output's shape depends only on its own
    # request, keeping results bitwise independent of the batch grouping.
    # Requests with equal frame counts share one stacked matmul whose
    # slices are exactly those per-request GEMMs.
    frame_offsets = np.concatenate(([0], np.cumsum(frame_counts)))
    by_frame_count: dict[int, list[int]] = {}
    for i, count in enumerate(frame_counts):
        by_frame_count.setdefault(count, []).append(i)
    power_cubes: dict[int, np.ndarray] = {}
    for num_frames, group in by_frame_count.items():
        rows = num_frames * num_bins
        stack = np.stack([
            lag_vectors[frame_offsets[i] * num_bins:
                        frame_offsets[i] * num_bins + rows]
            for i in group
        ])
        power = beamform_from_lags_stacked(stack, radar.array, angles)
        for slot, i in enumerate(group):
            cube = power[slot].reshape(num_frames, num_bins, num_angles)
            cube.flags.writeable = False
            power_cubes[i] = cube
    ctx.workspace["angles"] = angles
    ctx.workspace["frame_offsets"] = frame_offsets
    ctx.workspace["power_cubes"] = power_cubes


#: The fused batch plan: the same stage sequence as a direct sense call,
#: bound to multi-request kernels and instrumented under the same stages.
_FUSED_PLAN: tuple[StageBinding, ...] = (
    StageBinding(Stage.EMIT, "fused", _fused_emit),
    StageBinding(Stage.SYNTHESIZE, "fused", _fused_synthesize),
    StageBinding(Stage.RANGE_FFT, "fused", _fused_range_fft),
    StageBinding(Stage.BACKGROUND_SUBTRACT, "fused", _fused_subtract),
    StageBinding(Stage.BEAMFORM, "fused", _fused_beamform),
)


def _run_group_vectorized(key: BatchKey,
                          items: Sequence[ExecutionItem],
                          ) -> list[SensingResult]:
    """The fused vectorized path for one key-homogeneous group."""
    config = key.config
    radar = radar_for(config)

    ctx = ExecutionContext(
        array=radar.array, times=np.empty(0, dtype=np.float64),
        config=config, max_range=key.max_range, min_range=config.min_range,
    )
    ctx.workspace["radar"] = radar
    ctx.workspace["items"] = items
    execute(_FUSED_PLAN, ctx)

    raw_profiles = ctx.workspace["raw_profiles"]
    frame_offsets = ctx.workspace["frame_offsets"]
    power_cubes = ctx.workspace["power_cubes"]
    ranges = ctx.workspace["ranges"]
    angles = ctx.workspace["angles"]

    results: list[SensingResult] = []
    for i, times in enumerate(ctx.workspace["times_list"]):
        frame_slice = slice(int(frame_offsets[i]), int(frame_offsets[i + 1]))
        raw_slice = raw_profiles[frame_slice]
        sweep = SweepProcessingResult(raw_profiles=raw_slice,
                                      power_cube=power_cubes[i],
                                      ranges=ranges, angles=angles,
                                      times=times)
        results.append(SensingResult(times=times, profiles=sweep.profiles(),
                                     raw_profiles=raw_slice, config=config,
                                     array=radar.array))
    return results


def execute_batch(items: Sequence[ExecutionItem]) -> list[ExecutionOutcome]:
    """Execute one flushed batch; never raises, reports per-item outcomes.

    Tries the fused vectorized path for the whole group first; on any
    failure, retries each request alone (:func:`_sense_alone`) so a single
    poisoned request cannot take its batch-mates down with it.
    """
    if not items:
        return []
    key = items[0].key
    if any(item.key != key for item in items):
        raise ValueError("execute_batch requires a key-homogeneous batch")
    try:
        results = _run_group_vectorized(key, items)
    except Exception as error:
        logger.warning(
            "vectorized batch path failed for %d request(s) (%s: %s); "
            "retrying each request alone",
            len(items), type(error).__name__, error,
        )
        return [_isolated_outcome(item) for item in items]
    return [
        ExecutionOutcome(request_id=item.request_id, result=result,
                         backend=BACKEND_VECTORIZED)
        for item, result in zip(items, results)
    ]


def _sense_alone(item: ExecutionItem) -> SensingResult:
    """One request as a direct sense with its own seed, start and crop.

    The direct path is pinned bitwise to the fused one, so a request that
    succeeds here gets the bits a fault-free batch would have given it. A
    failure that is not already a :class:`ReproError` becomes a
    :class:`ServeError` naming the request and the original type.
    """
    request = item.request
    try:
        return radar_for(item.key.config).sense(
            request.scene, request.duration,
            rng=np.random.default_rng(request.seed),
            start_time=request.start_time, max_range=item.key.max_range)
    except ReproError:
        raise
    except Exception as error:
        raise ServeError(
            f"request {item.request_id} failed: "
            f"{type(error).__name__}: {error}") from error


def _isolated_outcome(item: ExecutionItem) -> ExecutionOutcome:
    try:
        result = _sense_alone(item)
    except ReproError as error:  # surfaced per request, not swallowed
        logger.warning("isolated retry failed for request %d (%s: %s)",
                       item.request_id, type(error).__name__, error)
        return ExecutionOutcome(request_id=item.request_id, result=None,
                                backend=BACKEND_ISOLATED, error=error)
    return ExecutionOutcome(request_id=item.request_id, result=result,
                            backend=BACKEND_ISOLATED)
