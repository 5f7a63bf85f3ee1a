"""Stage-graph execution: one typed pipeline behind every sense path.

The paper's processing chain (Sec. 9.1) is a fixed sequence of stages:

    Emit -> Synthesize -> RangeFFT -> BackgroundSubtract -> Beamform -> Detect

Historically that chain was wired four separate times — ``FmcwRadar.sense``,
``PulsedRadar.sense``, the serving engine's fused batch path, and the
experiments runner — each re-deriving the stage order. This module makes
the chain explicit and singular:

- :class:`Stage` names the stages; a *plan* is a tuple of
  :class:`StageBinding`\\ s, each binding one stage to the one kernel that
  runs it, executed in order by :func:`execute`. :data:`SENSE_PLAN` is the
  FMCW chain, :data:`RECEIVE_PLAN` its receive half; the pulsed radar and
  the serving engine bind their own Emit/Synthesize/receive kernels the
  same way.
- :class:`ExecutionContext` carries what kernels share: the RNG, the dtype
  policy, the frame-time grid, crop bounds, and a reusable workspace whose
  named slots are the inter-stage contract (see the table below).
- Every stage run is timed and observed into per-stage wall-time
  histograms (:func:`stage_metrics`, built on
  :class:`repro.serve.metrics.MetricsRegistry`); the benchmarks job dumps
  the snapshot as an artifact.

Workspace slots (the inter-stage contract)::

    components   Emission                   Emit -> Synthesize
                 ((6, C) packed paths + (F,) per-frame counts)
    noise        (F, K, N) complex | None   Emit -> Synthesize
    frames       (F, K, N) complex          Synthesize -> RangeFFT
    raw_profiles (F, K, B) complex          RangeFFT -> BackgroundSubtract
    ranges_full  (B,) float                 RangeFFT -> BackgroundSubtract
    ranges       (B_kept,) float            BackgroundSubtract -> Beamform
    subtracted   (F, K, B_kept) complex     BackgroundSubtract -> Beamform
    angles       (A,) float                 Beamform output
    power_cube   (F, B_kept, A) float       Beamform output
    profiles     list[RangeAngleProfile]    Beamform -> Detect
    tracker      StreamingTracker           Detect (streaming) carry-over state
    tracks       list[Track]                Detect output

The per-frame reference bodies these kernels replaced live on as test
oracles (``tests/receive_oracle.py``); the equivalence suites
(``tests/test_frontend_equivalence.py``,
``tests/test_pipeline_equivalence.py``) pin every kernel to them.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import TrackingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.batch import synthesize_packed
from repro.radar.emit import Emission, emit_paths
from repro.radar.pipeline import (
    batched_background_subtract,
    batched_beamform_power,
    batched_range_profiles,
)
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    range_keep_mask,
)
from repro.radar.tracker import (
    StreamingTracker,
    Track,
    TrackerConfig,
    extract_tracks,
)
from repro.signal.phase import extract_phase
from repro.signal.spectral import range_axis
from repro.types import Trajectory

if TYPE_CHECKING:
    from repro.serve.metrics import MetricsRegistry

__all__ = [
    "DETECT",
    "ExecutionContext",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "STAGE_TIME_BUCKETS",
    "STREAMING_DETECT",
    "Stage",
    "StageBinding",
    "TrackedResultMixin",
    "execute",
    "stage_metrics",
]

#: Wall-time histogram grid for stage instrumentation, seconds. Stages run
#: from tens of microseconds (subtract on a cropped cube) to seconds (a
#: long sweep's synthesis), so the grid is finer than the serving latency
#: buckets.
STAGE_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
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


@dataclasses.dataclass
class ExecutionContext:
    """Shared state a plan's kernels execute against.

    Attributes:
        array: array geometry (taper/lag-basis memos live here).
        times: frame capture times, seconds.
        config: radar configuration (``RadarConfig`` for FMCW,
            ``PulsedRadarConfig`` for pulsed — kernels only touch the
            fields their radar family defines, so the slot is untyped).
        scene: the scene being sensed (``None`` for frame-cube-only plans).
        rng: randomness source for emission; ``None`` disables noise draws.
        max_range: far crop of the range axis, meters (``None`` = no crop).
        min_range: near-field blanking, meters.
        metrics: optional extra telemetry sink; per-stage wall times always
            also land in the process-wide :func:`stage_metrics` registry.
        complex_dtype / real_dtype: the dtype policy kernels allocate with.
        workspace: named inter-stage slots (see the module docstring).
    """

    array: UniformLinearArray
    times: np.ndarray
    config: Any = None
    scene: Any = None
    rng: np.random.Generator | None = None
    max_range: float | None = None
    min_range: float = 0.0
    metrics: "MetricsRegistry | None" = None
    complex_dtype: Any = np.complex128
    real_dtype: Any = np.float64
    workspace: dict[str, Any] = dataclasses.field(default_factory=dict)

    def buffer(self, name: str, shape: tuple[int, ...],
               dtype: Any) -> np.ndarray:
        """A writable workspace array of ``shape``/``dtype``, reused if possible.

        Re-running a plan against the same context (the serving engine's
        steady state) then recycles the previous run's allocation instead
        of growing the heap every sweep.
        """
        existing = self.workspace.get(name)
        if (
            isinstance(existing, np.ndarray)
            and existing.shape == shape
            and existing.dtype == np.dtype(dtype)
            and existing.flags.writeable
        ):
            return existing
        fresh = np.empty(shape, dtype=dtype)
        self.workspace[name] = fresh
        return fresh


StageFn = Callable[[ExecutionContext], None]


# --------------------------------------------------------------------------
# Instrumentation
# --------------------------------------------------------------------------

# Imported lazily: repro.serve.metrics is dependency-free, but importing it
# initializes the repro.serve package, which imports the radar facade —
# a cycle if it happened while this module (or repro.radar.radar) loads.
# Created under a lock: serve's engine workers can race on the first
# observation, and a registry that lost the race would drop its counts.
_STAGE_METRICS: "MetricsRegistry | None" = None
_STAGE_METRICS_LOCK = threading.Lock()


def stage_metrics() -> "MetricsRegistry":
    """The process-wide per-stage timing registry (lazily constructed).

    One histogram per stage (``stages.<stage>.wall_s``) plus one run
    counter per (stage, kernel label) pair — the same Prometheus-shaped
    instruments the serving service exports, so a service snapshot, the
    benchmarks artifact, and an experiment record all read identically.
    """
    global _STAGE_METRICS
    if _STAGE_METRICS is None:
        with _STAGE_METRICS_LOCK:
            if _STAGE_METRICS is None:
                from repro.serve.metrics import MetricsRegistry
                _STAGE_METRICS = MetricsRegistry()
    return _STAGE_METRICS


def _observe_stage(stage: Stage, label: str, elapsed_s: float,
                   ctx: ExecutionContext) -> None:
    name = f"stages.{stage.value}.wall_s"
    registry = stage_metrics()
    registry.observe(name, elapsed_s, STAGE_TIME_BUCKETS)
    registry.inc(f"stages.{stage.value}.{label}.runs")
    if ctx.metrics is not None and ctx.metrics is not registry:
        ctx.metrics.observe(name, elapsed_s, STAGE_TIME_BUCKETS)


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageBinding:
    """One plan entry: a stage and the kernel that runs it.

    Attributes:
        stage: which stage this entry runs.
        label: the kernel's name in the per-stage run counters
            (``stages.<stage>.<label>.runs``).
        kernel: the stage function; it reads and writes ``ctx.workspace``.
    """

    stage: Stage
    label: str
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
        _observe_stage(binding.stage, binding.label,
                       time.perf_counter() - started, ctx)
    return ctx


# --------------------------------------------------------------------------
# Emit
# --------------------------------------------------------------------------


def _emit(ctx: ExecutionContext) -> None:
    """Emit kernel: the one-request case of :func:`~repro.radar.emit.emit_paths`.

    Packed scene paths land in ``workspace["components"]``; with a
    generator and a positive noise floor, the sweep's thermal noise is
    drawn frame by frame (after each frame's paths, as historically) into
    a fresh ``(F, K, N)`` cube in ``workspace["noise"]``.
    """
    config = ctx.config
    noise: np.ndarray | None = None
    if ctx.rng is not None and config.noise_std > 0:
        noise = np.empty((ctx.times.shape[0], *config.frame_shape),
                         dtype=complex)
    scene = ctx.scene
    ctx.workspace["components"] = emit_paths(
        scene.entities, scene.channel, ctx.array, [ctx.times], [ctx.rng],
        occlusion=scene.occlusion,
        noise=None if noise is None else [noise],
        noise_std=config.noise_std)[0]
    ctx.workspace["noise"] = noise


# --------------------------------------------------------------------------
# Synthesize
# --------------------------------------------------------------------------


def _synthesize(ctx: ExecutionContext) -> None:
    """Batched sweep synthesis over the packed emitted components.

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
    """Whole-cube blocked range FFT."""
    ctx.workspace["raw_profiles"] = batched_range_profiles(
        ctx.workspace["frames"], ctx.config
    )
    ctx.workspace["ranges_full"] = range_axis(
        ctx.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR
    )


# --------------------------------------------------------------------------
# BackgroundSubtract
# --------------------------------------------------------------------------


def _crop_raw_profiles(ctx: ExecutionContext) -> np.ndarray:
    """Crop the raw profile cube to in-window bins; record the kept axis.

    Cropping commutes exactly with the elementwise successive-frame
    subtraction, so the cube is cut down *before* differencing and the
    difference pass touches only the in-room slice.
    """
    keep = range_keep_mask(ctx.workspace["ranges_full"],
                           min_range=ctx.min_range, max_range=ctx.max_range)
    ctx.workspace["keep"] = keep
    ctx.workspace["ranges"] = ctx.workspace["ranges_full"][keep]
    return np.ascontiguousarray(ctx.workspace["raw_profiles"][:, :, keep])


def _subtract(ctx: ExecutionContext) -> None:
    """Single shifted-difference pass over the cropped cube."""
    ctx.workspace["subtracted"] = batched_background_subtract(
        _crop_raw_profiles(ctx)
    )


# --------------------------------------------------------------------------
# Beamform
# --------------------------------------------------------------------------


def _beamform(ctx: ExecutionContext) -> None:
    """Lag-domain Eq. 2 over the whole sweep.

    Every profile is a zero-copy view into one frozen power cube sharing
    frozen range/angle planes.
    """
    angles = ctx.config.angle_grid()
    angles.flags.writeable = False
    ranges = ctx.workspace["ranges"]
    ranges.flags.writeable = False
    power_cube = batched_beamform_power(ctx.workspace["subtracted"],
                                        ctx.array, angles)
    power_cube.flags.writeable = False
    ctx.workspace["angles"] = angles
    ctx.workspace["power_cube"] = power_cube
    ctx.workspace["profiles"] = [
        RangeAngleProfile(power=power_cube[f], ranges=ranges, angles=angles,
                          time=float(t))
        for f, t in enumerate(ctx.times)
    ]


#: The full FMCW sense plan (Detect runs lazily via the result mixin).
SENSE_PLAN: tuple[StageBinding, ...] = (
    StageBinding(Stage.EMIT, "shared", _emit),
    StageBinding(Stage.SYNTHESIZE, "vectorized", _synthesize),
    StageBinding(Stage.RANGE_FFT, "vectorized", _range_fft),
    StageBinding(Stage.BACKGROUND_SUBTRACT, "vectorized", _subtract),
    StageBinding(Stage.BEAMFORM, "vectorized", _beamform),
)

#: The receive-only sub-plan: a beat cube already in ``workspace["frames"]``.
RECEIVE_PLAN: tuple[StageBinding, ...] = SENSE_PLAN[2:]


# --------------------------------------------------------------------------
# Detect
# --------------------------------------------------------------------------


def _detect_tracks(ctx: ExecutionContext) -> None:
    """Peak detection + Kalman trajectory extraction over the profiles."""
    ctx.workspace["tracks"] = extract_tracks(
        ctx.workspace["profiles"], ctx.array,
        ctx.workspace.get("tracker_config"),
    )


def _detect_tracks_streaming(ctx: ExecutionContext) -> None:
    """Frame-at-a-time Detect: drives the incremental tracker.

    Ingests the workspace profiles one by one into a
    :class:`StreamingTracker` — resuming the tracker already in
    ``workspace["tracker"]`` when one is present, which is how a serving
    session appends new frames to its long-lived tracker state through
    the instrumented executor. ``stream(frames) == batch(frames)`` holds
    by construction (the batch kernel is this loop inlined), and the
    property suite pins it.
    """
    tracker = ctx.workspace.get("tracker")
    if tracker is None:
        tracker = StreamingTracker(ctx.array,
                                   ctx.workspace.get("tracker_config"))
        ctx.workspace["tracker"] = tracker
    else:
        # Locate these profiles with the array of the radar that sensed
        # them, not whichever array the tracker was built or restored with.
        tracker.array = ctx.array
    for profile in ctx.workspace["profiles"]:
        tracker.ingest(profile)
    ctx.workspace["tracks"] = tracker.tracks()


#: Batch Detect over a finished sweep (``SensingResult.tracks()``).
DETECT = StageBinding(Stage.DETECT, "shared", _detect_tracks)

#: Streaming Detect into a resumable tracker (serve's tracked sessions).
STREAMING_DETECT = StageBinding(Stage.DETECT, "streaming",
                                _detect_tracks_streaming)


class TrackedResultMixin:
    """Shared post-processing for sensing results (FMCW and pulsed).

    Subclasses provide ``times``, ``profiles``, ``array``, and (for phase
    analysis) ``raw_profiles`` + ``range_bins()``; this mixin runs the
    Detect stage through the instrumented executor and derives
    trajectories and per-bin phase series from it — one implementation for
    both radar families.
    """

    if TYPE_CHECKING:
        times: np.ndarray
        profiles: list[RangeAngleProfile]
        array: UniformLinearArray
        raw_profiles: np.ndarray | None

        def range_bins(self) -> np.ndarray: ...

    def tracks(self, tracker_config: TrackerConfig | None = None,
               ) -> list[Track]:
        """Run trajectory extraction (the Detect stage) on the profiles."""
        ctx = ExecutionContext(array=self.array, times=self.times)
        ctx.workspace["profiles"] = self.profiles
        ctx.workspace["tracker_config"] = tracker_config
        execute((DETECT,), ctx)
        result: list[Track] = ctx.workspace["tracks"]
        return result

    def stream_tracks(self, tracker_config: TrackerConfig | None = None,
                      tracker: StreamingTracker | None = None,
                      ) -> StreamingTracker:
        """Feed the profiles frame-by-frame into an incremental tracker.

        Runs the streaming Detect kernel through the instrumented executor
        and returns the primed :class:`StreamingTracker` — read
        ``tracks()`` off it, keep ingesting later profiles, or checkpoint
        it. Pass ``tracker`` to continue an existing session instead of
        starting fresh; ``tracker_config`` is ignored in that case (the
        tracker already owns its config), and the tracker adopts this
        result's ``array``, which sensed the profiles it is about to
        locate.
        """
        ctx = ExecutionContext(array=self.array, times=self.times)
        ctx.workspace["profiles"] = self.profiles
        ctx.workspace["tracker_config"] = tracker_config
        if tracker is not None:
            ctx.workspace["tracker"] = tracker
        execute((STREAMING_DETECT,), ctx)
        primed: StreamingTracker = ctx.workspace["tracker"]
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
        if self.raw_profiles is None:
            raise TrackingError(
                "this sensing session did not retain raw profiles"
            )
        bins = self.range_bins()
        bin_index = int(np.argmin(np.abs(bins - distance)))
        return extract_phase(self.raw_profiles[:, antenna, :], bin_index)
