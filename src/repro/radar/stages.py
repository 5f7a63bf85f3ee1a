"""Stage-graph execution: one sense path for one request or a batch.

The paper's processing chain (Sec. 9.1) is a fixed sequence of stages:

    Emit -> Synthesize -> RangeFFT -> BackgroundSubtract -> Beamform -> Detect

This module holds the one kernel of each stage and the executor that runs
them:

- :class:`Stage` names the stages; a *plan* is a tuple of
  :class:`StageBinding`\\ s, each binding one stage to the kernel that runs
  it, executed in order by :func:`execute`. :data:`SENSE_PLAN` is the FMCW
  chain and :data:`RECEIVE_PLAN` its receive half; the pulsed radar binds
  its own Synthesize and RangeFFT kernels around the shared Emit and
  receive kernels.
- :class:`ExecutionContext` carries what kernels share: the array, the
  radar configuration, the crop bounds, the requests being sensed (one
  :class:`SenseInput` each) and a workspace whose named slots are the
  inter-stage contract (see the table below).
- Every kernel runs over a *list* of requests with equal configuration and
  crop. ``FmcwRadar.sense`` runs :data:`SENSE_PLAN` on a list of one, the
  serving engine on its key-homogeneous batch. Each request's draws come
  from its own generator in the order of a lone sense, and each request's
  Eq. 2 GEMM has its own shape, so a request's bits do not depend on which
  batch it rode in. :func:`sweep_results` splits a finished context back
  into one :class:`SensingResult` per request; every sense path (FMCW,
  pulsed, a served batch, :func:`process_sweep` on a beat cube) returns
  those.
- Detect is not in a plan: it runs on demand on a finished result.
  :meth:`SensingResult.tracks` and :meth:`SensingResult.stream_tracks`
  ingest the result's range-angle profiles into a
  :class:`~repro.radar.tracker.StreamingTracker`, fresh or a serving
  session's.
- Every stage run is timed into a per-stage wall-time histogram,
  ``stages.<stage>.wall_s``, of the process registry
  (:func:`stage_metrics`, which is :func:`repro.obs.process_metrics`).

Workspace slots (the inter-stage contract; ``F`` is the requests' summed
frame count, request after request)::

    components   Emission                   Emit -> Synthesize
                 ((6, C) packed paths + (F,) per-frame counts)
    noise        (F, K, N) complex | None   Emit -> Synthesize
    frames       (F, K, N) complex          Synthesize -> RangeFFT
    raw_profiles (F, K, B) complex          RangeFFT -> BackgroundSubtract,
                                            result
    ranges_full  (B,) float                 RangeFFT -> BackgroundSubtract,
                                            result (``range_bins``)
    ranges       (B_kept,) float            BackgroundSubtract -> Beamform
    subtracted   (F, K, B_kept) complex     BackgroundSubtract -> Beamform
    angles       (A,) float                 Beamform output
    power_cubes  list of (F_r, B_kept, A)   Beamform output, one per request

The per-frame reference bodies these kernels replaced live on as test
oracles (``tests/receive_oracle.py``); the equivalence suites
(``tests/test_frontend_equivalence.py``,
``tests/test_pipeline_equivalence.py``) pin every kernel to them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.errors import ConfigurationError, SignalProcessingError, TrackingError
from repro.obs import observe_wall, process_metrics
from repro.radar.antenna import UniformLinearArray
from repro.radar.batch import synthesize_packed
from repro.radar.config import RadarConfig
from repro.radar.emit import Emission, emit_paths
from repro.radar.pipeline import (
    batched_background_subtract,
    batched_lag_vectors,
    batched_range_profiles,
    beamform_from_lags_stacked,
)
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    range_keep_mask,
)
from repro.radar.tracker import StreamingTracker, Track, TrackerConfig
from repro.signal.phase import extract_phase
from repro.signal.spectral import range_axis
from repro.types import Trajectory

if TYPE_CHECKING:
    from repro.radar.scene import Scene

__all__ = [
    "ExecutionContext",
    "MAX_SWEEP_BYTES",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "SenseInput",
    "Stage",
    "SensingResult",
    "StageBinding",
    "execute",
    "frame_count",
    "process_sweep",
    "stage_metrics",
    "sweep_results",
]

#: Largest complex beat cube one request may capture, bytes (256 MiB).
#: The largest request any experiment, example or benchmark makes is a
#: 30-s sweep at the default configuration: 300 frames of 7 x 1000
#: samples, 33.6 MB, an eighth of this. Before the crop, a sweep's range
#: profiles and power cube add about 1x and A / 2K (13x) the beat cube.
MAX_SWEEP_BYTES = 1 << 28


def frame_count(config: Any, duration: float) -> int:
    """Frames captured in ``duration`` seconds, checked against the budget.

    At least two frames are always captured (background subtraction needs
    a warmup frame). ``config`` is a ``RadarConfig`` or a
    ``PulsedRadarConfig`` (anything with ``frame_rate`` and
    ``frame_shape``).

    Raises:
        TrackingError: ``duration`` is not positive.
        ConfigurationError: the request's ``(F, K, N)`` complex beat cube
            would exceed :data:`MAX_SWEEP_BYTES`; raised before anything is
            allocated.
    """
    if not duration > 0:
        raise TrackingError(f"duration must be positive, got {duration}")
    frame_bytes = 16 * math.prod(config.frame_shape)
    frames = duration * config.frame_rate
    if frames <= MAX_SWEEP_BYTES // frame_bytes:
        num_frames = max(int(round(frames)), 2)
        if num_frames * frame_bytes <= MAX_SWEEP_BYTES:
            return num_frames
    raise ConfigurationError(
        f"a {duration:g}-s sweep at {config.frame_rate:g} frames/s exceeds "
        f"the {MAX_SWEEP_BYTES} B beat-cube budget "
        f"({frame_bytes} B per frame)"
    )


class Stage(enum.Enum):
    """The typed stage sequence of a sense run."""

    EMIT = "emit"
    SYNTHESIZE = "synthesize"
    RANGE_FFT = "range_fft"
    BACKGROUND_SUBTRACT = "background_subtract"
    BEAMFORM = "beamform"
    DETECT = "detect"


# --------------------------------------------------------------------------
# Execution context
# --------------------------------------------------------------------------


class SenseInput(NamedTuple):
    """One request of a sense run: what to sense, when, and its draws.

    Attributes:
        scene: the scene being sensed (``None`` for receive-only plans).
        times: the request's frame capture times, seconds.
        rng: the request's own generator; ``None`` for scenes that draw
            nothing under a noiseless configuration.
    """

    scene: "Scene | None"
    times: np.ndarray
    rng: np.random.Generator | None


@dataclasses.dataclass
class ExecutionContext:
    """Shared state a plan's kernels execute against.

    Attributes:
        array: array geometry (taper/lag-basis memos live here).
        config: radar configuration (``RadarConfig`` for FMCW,
            ``PulsedRadarConfig`` for pulsed — kernels only touch the
            fields their radar family defines, so the slot is untyped).
        requests: the requests being sensed, in result order; every one
            shares ``config`` and the crop.
        max_range: far crop of the range axis, meters (``None`` = no crop).
        min_range: near-field blanking, meters.
        workspace: named inter-stage slots (see the module docstring).
    """

    array: UniformLinearArray
    config: Any = None
    requests: Sequence[SenseInput] = ()
    max_range: float | None = None
    min_range: float = 0.0
    workspace: dict[str, Any] = dataclasses.field(default_factory=dict)

    def frame_offsets(self) -> list[int]:
        """Where each request's frames start in the stacked cubes, plus F."""
        offsets = [0]
        for request in self.requests:
            offsets.append(offsets[-1] + int(request.times.shape[0]))
        return offsets


StageFn = Callable[[ExecutionContext], None]


#: The process registry, which holds one wall-time histogram per stage,
#: ``stages.<stage>.wall_s``, whose count is the stage's run count.
stage_metrics = process_metrics


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageBinding:
    """One plan entry: a stage and the kernel that runs it.

    Attributes:
        stage: which stage this entry runs.
        kernel: the stage function; it reads and writes ``ctx.workspace``.
    """

    stage: Stage
    kernel: StageFn


def execute(plan: Sequence[StageBinding],
            ctx: ExecutionContext) -> ExecutionContext:
    """Run ``plan`` in order against ``ctx``, timing every stage.

    Each binding's kernel runs against the shared context and its wall
    time is observed into the per-stage histograms. Returns ``ctx`` for
    chaining.
    """
    for binding in plan:
        started = time.perf_counter()
        binding.kernel(ctx)
        observe_wall(f"stages.{binding.stage.value}.wall_s", started)
    return ctx


# --------------------------------------------------------------------------
# Emit
# --------------------------------------------------------------------------


def _emit(ctx: ExecutionContext) -> None:
    """Emit every request, one :func:`~repro.radar.emit.emit_paths` per scene.

    Geometry is shared by the requests of a scene; draws are not — each
    request replays its own generator in the order of a lone sense call.
    With a positive noise floor, each request's thermal noise is drawn
    frame by frame (after each frame's paths) into its slice of one
    ``(F, K, N)`` cube in ``workspace["noise"]``.
    """
    requests = ctx.requests
    config = ctx.config
    offsets = ctx.frame_offsets()
    noise: np.ndarray | None = None
    if config.noise_std > 0:
        noise = np.empty((offsets[-1], *config.frame_shape), dtype=complex)
    by_scene: dict[int, list[int]] = {}
    for i, request in enumerate(requests):
        by_scene.setdefault(id(request.scene), []).append(i)
    emissions: dict[int, Emission] = {}
    for members in by_scene.values():
        scene = requests[members[0]].scene
        assert scene is not None
        emitted = emit_paths(
            scene.entities, scene.channel, ctx.array,
            [requests[i].times for i in members],
            [requests[i].rng for i in members],
            occlusion=scene.occlusion,
            noise=(None if noise is None else
                   [noise[offsets[i]:offsets[i + 1]] for i in members]),
            noise_std=config.noise_std)
        emissions.update(zip(members, emitted))
    if len(requests) == 1:
        ctx.workspace["components"] = emissions[0]
    else:
        ordered = [emissions[i] for i in range(len(requests))]
        ctx.workspace["components"] = Emission(
            np.concatenate([e.columns for e in ordered], axis=1),
            np.concatenate([e.counts for e in ordered]))
    ctx.workspace["noise"] = noise


# --------------------------------------------------------------------------
# Synthesize
# --------------------------------------------------------------------------


def _synthesize(ctx: ExecutionContext) -> None:
    """One packed synthesis pass over every request's paths.

    The tones are added into the emitted noise cube when there is one
    (the sum is the same either way round).
    """
    emission: Emission = ctx.workspace["components"]
    ctx.workspace["frames"] = synthesize_packed(
        emission.columns, emission.counts, ctx.config, ctx.array,
        out=ctx.workspace.get("noise"))


# --------------------------------------------------------------------------
# RangeFFT
# --------------------------------------------------------------------------


def _range_fft(ctx: ExecutionContext) -> None:
    """One blocked range FFT over the stacked beat cube.

    The beat cube (the emitted noise cube with the tones added in) is
    dropped from the workspace here: nothing downstream reads it, and a
    serving worker holding it through Beamform raises peak memory.
    """
    frames = ctx.workspace.pop("frames")
    ctx.workspace.pop("noise", None)
    ctx.workspace["raw_profiles"] = batched_range_profiles(frames,
                                                           ctx.config)
    ctx.workspace["ranges_full"] = range_axis(
        ctx.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR
    )


# --------------------------------------------------------------------------
# BackgroundSubtract
# --------------------------------------------------------------------------


def _subtract(ctx: ExecutionContext) -> None:
    """Shared crop, then one shifted difference with request starts re-zeroed.

    Cropping commutes exactly with the elementwise successive-frame
    subtraction, so the cube is cut down *before* differencing and the
    difference pass touches only the in-room slice. A request's first
    frame has no predecessor inside its own sweep, so the stacked
    difference must not leak the previous request's last frame into it.
    """
    keep = range_keep_mask(ctx.workspace["ranges_full"],
                           min_range=ctx.min_range, max_range=ctx.max_range)
    ranges = ctx.workspace["ranges_full"][keep]
    ranges.flags.writeable = False
    ctx.workspace["ranges"] = ranges
    subtracted = batched_background_subtract(
        np.ascontiguousarray(ctx.workspace["raw_profiles"][:, :, keep])
    )
    subtracted[ctx.frame_offsets()[:-1]] = 0.0
    ctx.workspace["subtracted"] = subtracted


# --------------------------------------------------------------------------
# Beamform
# --------------------------------------------------------------------------


def _beamform(ctx: ExecutionContext) -> None:
    """Cube-wide lag vectors, then one Eq. 2 GEMM shape per request.

    Each request's power cube comes from a GEMM whose shape depends only
    on the request itself, so results are bitwise independent of the
    batch around it. Requests with equal frame counts share one stacked
    matmul whose slices are exactly those per-request GEMMs; a request
    alone in its group runs on a ``[None]`` view of its lag block.
    """
    angles = ctx.config.angle_grid()
    angles.flags.writeable = False
    num_bins = int(ctx.workspace["ranges"].shape[0])
    num_angles = int(angles.shape[0])
    lag_vectors = batched_lag_vectors(ctx.workspace["subtracted"], ctx.array)
    offsets = ctx.frame_offsets()
    by_frame_count: dict[int, list[int]] = {}
    for i in range(len(ctx.requests)):
        by_frame_count.setdefault(offsets[i + 1] - offsets[i], []).append(i)
    power_cubes: dict[int, np.ndarray] = {}
    for num_frames, group in by_frame_count.items():
        blocks = [lag_vectors[offsets[i] * num_bins:
                              offsets[i + 1] * num_bins] for i in group]
        stack = blocks[0][None] if len(blocks) == 1 else np.stack(blocks)
        power = beamform_from_lags_stacked(stack, ctx.array, angles)
        for slot, i in enumerate(group):
            cube = power[slot].reshape(num_frames, num_bins, num_angles)
            cube.flags.writeable = False
            power_cubes[i] = cube
    ctx.workspace["angles"] = angles
    ctx.workspace["power_cubes"] = [power_cubes[i]
                                    for i in range(len(ctx.requests))]


#: The full FMCW sense plan (Detect runs on demand on the result).
SENSE_PLAN: tuple[StageBinding, ...] = (
    StageBinding(Stage.EMIT, _emit),
    StageBinding(Stage.SYNTHESIZE, _synthesize),
    StageBinding(Stage.RANGE_FFT, _range_fft),
    StageBinding(Stage.BACKGROUND_SUBTRACT, _subtract),
    StageBinding(Stage.BEAMFORM, _beamform),
)

#: The receive-only sub-plan: a beat cube already in ``workspace["frames"]``.
RECEIVE_PLAN: tuple[StageBinding, ...] = SENSE_PLAN[2:]


# --------------------------------------------------------------------------
# Results and Detect
# --------------------------------------------------------------------------

_DETECT_WALL = f"stages.{Stage.DETECT.value}.wall_s"


@dataclasses.dataclass(frozen=True)
class SensingResult:
    """Everything one request's sweep produced, whichever radar sensed it.

    Detect runs on demand: each :meth:`tracks` or :meth:`stream_tracks`
    call ingests :attr:`profiles` frame by frame into a
    :class:`StreamingTracker` and is timed into ``stages.detect.wall_s``.

    Attributes:
        times: frame capture times, seconds.
        raw_profiles: complex per-antenna range profiles *before*
            subtraction, ``(F, K, B)``: what phase/breathing analysis
            reads, since static targets matter there.
        power_cube: range-angle power, ``(F, B_kept, A)``, read-only
            (every profile view shares it).
        ranges: the cropped range axis of every map (read-only).
        angles: the beamforming grid of every map (read-only).
        range_bins: distance of each raw-profile bin, ``(B,)``, the
            RangeFFT stage's axis (read-only).
        config: radar configuration (``RadarConfig`` or
            ``PulsedRadarConfig``).
        array: array geometry the profiles were beamformed with.
    """

    times: np.ndarray
    raw_profiles: np.ndarray
    power_cube: np.ndarray
    ranges: np.ndarray
    angles: np.ndarray
    range_bins: np.ndarray
    config: Any
    array: UniformLinearArray

    @property
    def frame_dt(self) -> float:
        return float(self.config.frame_interval)

    @functools.cached_property
    def profiles(self) -> list[RangeAngleProfile]:
        """Background-subtracted range-angle maps, one per frame.

        Built once, on first use: each map's ``power`` is a zero-copy
        slice of :attr:`power_cube` and its axes are the shared sweep
        axes, so the list allocates no numeric data.
        """
        return [
            RangeAngleProfile(power=self.power_cube[f], ranges=self.ranges,
                              angles=self.angles, time=float(t))
            for f, t in enumerate(self.times)
        ]

    def _ingest(self, tracker_config: TrackerConfig | None,
                tracker: StreamingTracker | None) -> StreamingTracker:
        if tracker is None:
            tracker = StreamingTracker(self.array, tracker_config)
        else:
            # Locate these profiles with the array of the radar that sensed
            # them, not whichever array the tracker was built or restored
            # with.
            tracker.array = self.array
        for profile in self.profiles:
            tracker.ingest(profile)
        return tracker

    def tracks(self, tracker_config: TrackerConfig | None = None,
               ) -> list[Track]:
        """Run trajectory extraction (the Detect stage) on the profiles."""
        started = time.perf_counter()
        tracks = self._ingest(tracker_config, None).tracks()
        observe_wall(_DETECT_WALL, started)
        return tracks

    def stream_tracks(self, tracker_config: TrackerConfig | None = None,
                      tracker: StreamingTracker | None = None,
                      ) -> StreamingTracker:
        """Feed the profiles frame-by-frame into an incremental tracker.

        Runs the Detect stage's ingestion and returns the primed
        :class:`StreamingTracker` — read ``tracks()`` off it, keep
        ingesting later profiles, or checkpoint it. Pass ``tracker`` to
        continue an existing session instead of starting fresh;
        ``tracker_config`` is ignored in that case (the tracker already
        owns its config), and the tracker adopts this result's ``array``,
        which sensed the profiles it is about to locate.
        """
        started = time.perf_counter()
        primed = self._ingest(tracker_config, tracker)
        observe_wall(_DETECT_WALL, started)
        return primed

    def trajectories(self, tracker_config: TrackerConfig | None = None,
                     *, smooth: bool = True) -> list[Trajectory]:
        """Extracted trajectories, longest first."""
        return [t.to_trajectory(smooth=smooth)
                for t in self.tracks(tracker_config)]

    def best_trajectory(self, tracker_config: TrackerConfig | None = None,
                        ) -> Trajectory:
        """The longest extracted trajectory; raises if nothing was tracked."""
        trajectories = self.trajectories(tracker_config)
        if not trajectories:
            raise TrackingError("no target was tracked in this session")
        return trajectories[0]

    def phase_series(self, distance: float, *,
                     antenna: int = 0) -> np.ndarray:
        """Beat-tone phase across frames at the bin nearest ``distance``.

        This is the observable that carries breathing (Sec. 11.4).
        """
        bin_index = int(np.argmin(np.abs(self.range_bins - distance)))
        return extract_phase(self.raw_profiles[:, antenna, :], bin_index)


def sweep_results(ctx: ExecutionContext) -> list[SensingResult]:
    """Split a finished sense context into one result per request.

    Each result's raw profiles are a view of the request's frames in the
    stacked raw cube; its power cube and the read-only range/angle axes
    are the Beamform outputs, and its ``range_bins`` the RangeFFT axis.
    """
    raw_profiles = ctx.workspace["raw_profiles"]
    range_bins = ctx.workspace["ranges_full"]
    range_bins.flags.writeable = False
    offsets = ctx.frame_offsets()
    return [
        SensingResult(
            times=request.times,
            raw_profiles=raw_profiles[offsets[i]:offsets[i + 1]],
            power_cube=power_cube, ranges=ctx.workspace["ranges"],
            angles=ctx.workspace["angles"], range_bins=range_bins,
            config=ctx.config, array=ctx.array)
        for i, (request, power_cube) in enumerate(
            zip(ctx.requests, ctx.workspace["power_cubes"]))
    ]


def process_sweep(frames: np.ndarray, config: RadarConfig,
                  array: UniformLinearArray, times: np.ndarray, *,
                  max_range: float | None = None,
                  min_range: float | None = None) -> SensingResult:
    """Run the receive stages on a beat cube captured elsewhere.

    The library entry point for a beat cube: :data:`RECEIVE_PLAN`, the
    kernels ``FmcwRadar.sense`` runs after synthesis, on a request of
    one. The result tracks and reads phase like any sensed one.

    Args:
        frames: raw beat cube ``(F, K, N)``, as ``synthesize_packed``
            writes it.
        config: radar configuration the cube was captured under.
        array: array geometry for Eq. 2.
        times: frame capture times, length ``F``.
        max_range: optional far crop of the range axis, meters.
        min_range: near-field blanking (defaults to ``config.min_range``).
    """
    times = np.asarray(times, dtype=float)
    frames = np.asarray(frames)
    if times.shape[0] != frames.shape[0]:
        raise SignalProcessingError(
            f"got {times.shape[0]} frame times for {frames.shape[0]} frames"
        )
    ctx = ExecutionContext(
        array=array, config=config,
        requests=[SenseInput(scene=None, times=times, rng=None)],
        max_range=max_range,
        min_range=config.min_range if min_range is None else min_range,
    )
    ctx.workspace["frames"] = frames
    return sweep_results(execute(RECEIVE_PLAN, ctx))[0]
