"""Stage-graph execution: one typed pipeline behind every sense path.

The paper's processing chain (Sec. 9.1) is a fixed sequence of stages:

    Emit -> Synthesize -> RangeFFT -> BackgroundSubtract -> Beamform -> Detect

Historically that chain was wired four separate times — ``FmcwRadar.sense``,
``PulsedRadar.sense``, the serving engine's fused batch path, and the
experiments runner — each re-deriving the stage order and re-branching on
``RF_PROTECT_SYNTH``/``RF_PROTECT_PIPELINE``. This module makes the chain
explicit and singular:

- :class:`Stage` names the stages; a *plan* is a tuple of
  :class:`StageBinding`\\ s executed in order by :func:`execute`.
- :class:`KernelRegistry` is the **only** backend dispatch point: naive and
  vectorized kernels register per stage, :mod:`repro.config` selects the
  default (``RF_PROTECT_SYNTH`` for Synthesize, ``RF_PROTECT_PIPELINE`` for
  the receive stages), and callers may override per call — never by
  mutating process environment. The rflint rule **RFP009** rejects any
  ``get_synth_backend()``/``get_pipeline_backend()`` dispatch outside this
  module.
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
    power_cube   (F, B_kept, A) float       Beamform output (vectorized)
    profiles     list[RangeAngleProfile]    Beamform -> Detect
    tracker      StreamingTracker           Detect (streaming) carry-over state
    tracks       list[Track]                Detect output

Kernel arithmetic is taken verbatim from the pre-refactor paths, so the
equivalence suites (``tests/test_frontend_equivalence.py``,
``tests/test_pipeline_equivalence.py``, the serve bitwise-determinism
tests) pin the graph without modification.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.config import get_pipeline_backend, get_synth_backend
from repro.errors import ConfigurationError, TrackingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.batch import synthesize_frame_vectorized, synthesize_packed
from repro.radar.emit import Emission, emit_paths
from repro.radar.frontend import synthesize_frame_naive
from repro.radar.pipeline import (
    batched_background_subtract,
    batched_beamform_power,
    batched_range_profiles,
)
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    background_subtract,
    frame_range_profiles,
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
    "ExecutionContext",
    "KERNELS",
    "KernelRegistry",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "SHARED_BACKEND",
    "STAGE_TIME_BUCKETS",
    "Stage",
    "StageBinding",
    "StageKernel",
    "TrackedResultMixin",
    "backend_overrides",
    "default_backend",
    "execute",
    "frame_synthesizer",
    "stage_metrics",
]

#: Wall-time histogram grid for stage instrumentation, seconds. Stages run
#: from tens of microseconds (subtract on a cropped cube) to seconds (a
#: long naive synthesis sweep), so the grid is finer than the serving
#: latency buckets.
STAGE_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default backend name for the invariant stages (Emit, Detect): emission
#: order and tracking are algorithmic contracts, not performance choices.
#: Detect additionally registers a ``"streaming"`` kernel that drives the
#: incremental tracker frame by frame — same tracks by construction.
SHARED_BACKEND = "shared"


class Stage(enum.Enum):
    """The typed stage sequence of a sense run."""

    EMIT = "emit"
    SYNTHESIZE = "synthesize"
    RANGE_FFT = "range_fft"
    BACKGROUND_SUBTRACT = "background_subtract"
    BEAMFORM = "beamform"
    DETECT = "detect"


#: Stages whose default backend follows ``RF_PROTECT_SYNTH``.
_SYNTH_STAGES = frozenset({Stage.SYNTHESIZE})
#: Stages whose default backend follows ``RF_PROTECT_PIPELINE``.
_PIPELINE_STAGES = frozenset(
    {Stage.RANGE_FFT, Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM}
)


def default_backend(stage: Stage) -> str:
    """The backend ``stage`` runs on when no override is given.

    This is the single point where the typed env registry
    (:mod:`repro.config`) meets kernel dispatch: Synthesize follows
    ``RF_PROTECT_SYNTH``, the receive stages follow ``RF_PROTECT_PIPELINE``,
    and Emit/Detect always run their one shared kernel.
    """
    if stage in _SYNTH_STAGES:
        return get_synth_backend()
    if stage in _PIPELINE_STAGES:
        return get_pipeline_backend()
    return SHARED_BACKEND


def backend_overrides(*, synth: str | None = None,
                      pipeline: str | None = None) -> dict[Stage, str]:
    """Per-call stage overrides from the historical two-knob vocabulary.

    ``synth`` pins the Synthesize stage, ``pipeline`` pins all three
    receive stages; ``None`` leaves a stage on its environment default.
    """
    overrides: dict[Stage, str] = {}
    if synth is not None:
        overrides[Stage.SYNTHESIZE] = synth
    if pipeline is not None:
        for stage in (Stage.RANGE_FFT, Stage.BACKGROUND_SUBTRACT,
                      Stage.BEAMFORM):
            overrides[stage] = pipeline
    return overrides


# --------------------------------------------------------------------------
# Execution context
# --------------------------------------------------------------------------


@dataclasses.dataclass
class ExecutionContext:
    """Shared state a plan's kernels execute against.

    Attributes:
        array: array geometry (steering/taper/lag-basis memos live here).
        times: frame capture times, seconds.
        config: radar configuration (``RadarConfig`` for FMCW,
            ``PulsedRadarConfig`` for pulsed — kernels only touch the
            fields their radar family defines, so the slot is untyped).
        scene: the scene being sensed (``None`` for frame-cube-only plans).
        rng: randomness source for emission; ``None`` disables noise draws.
        max_range: far crop of the range axis, meters (``None`` = no crop).
        min_range: near-field blanking, meters.
        overrides: per-stage backend overrides (missing stage = default).
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
    overrides: dict[Stage, str] = dataclasses.field(default_factory=dict)
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


# --------------------------------------------------------------------------
# Kernel registry — the one backend dispatch point
# --------------------------------------------------------------------------

StageFn = Callable[[ExecutionContext], None]


@dataclasses.dataclass(frozen=True)
class StageKernel:
    """One registered kernel: a stage-level function plus optional extras.

    Attributes:
        stage: the stage this kernel implements.
        backend: the backend name it registered under.
        run: the stage-level entry point (mutates ``ctx.workspace``).
        frame_fn: optional frame-level companion with the historical
            ``(components, config, array, rng) -> frame`` signature, kept
            so :func:`repro.radar.frontend.synthesize_frame` can dispatch
            single frames through the same registry.
    """

    stage: Stage
    backend: str
    run: StageFn
    frame_fn: Callable[..., np.ndarray] | None = None


class KernelRegistry:
    """Registration-based dispatch: ``(stage, backend) -> StageKernel``.

    This replaces every scattered ``if get_*_backend() == "naive"``
    conditional: kernels register themselves once, and callers resolve by
    stage with an optional per-call backend override.
    """

    def __init__(self) -> None:
        self._kernels: dict[tuple[Stage, str], StageKernel] = {}

    def register(
        self, stage: Stage, backend: str, *,
        frame_fn: Callable[..., np.ndarray] | None = None,
    ) -> Callable[[StageFn], StageFn]:
        """Decorator registering ``fn`` as the ``backend`` kernel of ``stage``."""
        def decorator(fn: StageFn) -> StageFn:
            key = (stage, backend)
            if key in self._kernels:
                raise ConfigurationError(
                    f"kernel already registered for stage "
                    f"{stage.value!r} backend {backend!r}"
                )
            self._kernels[key] = StageKernel(stage=stage, backend=backend,
                                             run=fn, frame_fn=frame_fn)
            return fn
        return decorator

    def backends(self, stage: Stage) -> tuple[str, ...]:
        """Backend names registered for ``stage``, sorted."""
        return tuple(sorted(
            backend for (s, backend) in self._kernels if s is stage
        ))

    def resolve(self, stage: Stage,
                backend: str | None = None) -> StageKernel:
        """The kernel for ``stage``; ``backend=None`` follows the config default."""
        if backend is None:
            backend = default_backend(stage)
        kernel = self._kernels.get((stage, backend))
        if kernel is None:
            raise ConfigurationError(
                f"no kernel registered for stage {stage.value!r} backend "
                f"{backend!r}; registered: {self.backends(stage)}"
            )
        return kernel


#: The process-wide kernel registry every sense path resolves against.
KERNELS = KernelRegistry()


def frame_synthesizer(
        backend: str | None = None) -> Callable[..., np.ndarray]:
    """The frame-level synthesis kernel for ``backend`` (default from env).

    The single-frame companion of the Synthesize stage, resolved through
    the same registry so ``repro.radar.frontend.synthesize_frame`` carries
    no backend conditional of its own.
    """
    kernel = KERNELS.resolve(Stage.SYNTHESIZE, backend)
    if kernel.frame_fn is None:
        raise ConfigurationError(
            f"synthesis backend {kernel.backend!r} registered no "
            f"frame-level kernel"
        )
    return kernel.frame_fn


# --------------------------------------------------------------------------
# Instrumentation
# --------------------------------------------------------------------------

# Imported lazily: repro.serve.metrics is dependency-free, but importing it
# initializes the repro.serve package, which imports the radar facade —
# a cycle if it happened while this module (or repro.radar.radar) loads.
_STAGE_METRICS: "MetricsRegistry | None" = None


def stage_metrics() -> "MetricsRegistry":
    """The process-wide per-stage timing registry (lazily constructed).

    One histogram per stage (``stages.<stage>.wall_s``) plus one run
    counter per (stage, backend) pair — the same Prometheus-shaped
    instruments the serving service exports, so a service snapshot, the
    benchmarks artifact, and an experiment record all read identically.
    """
    global _STAGE_METRICS
    if _STAGE_METRICS is None:
        from repro.serve.metrics import MetricsRegistry
        _STAGE_METRICS = MetricsRegistry()
    return _STAGE_METRICS


def _observe_stage(stage: Stage, backend: str, elapsed_s: float,
                   ctx: ExecutionContext) -> None:
    name = f"stages.{stage.value}.wall_s"
    registry = stage_metrics()
    registry.observe(name, elapsed_s, STAGE_TIME_BUCKETS)
    registry.inc(f"stages.{stage.value}.{backend}.runs")
    if ctx.metrics is not None and ctx.metrics is not registry:
        ctx.metrics.observe(name, elapsed_s, STAGE_TIME_BUCKETS)


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StageBinding:
    """One plan entry: a stage, optionally pinned to a backend or kernel.

    Attributes:
        stage: which stage this entry runs.
        backend: explicit backend (wins over ``ctx.overrides`` and the
            environment default). With ``kernel`` set it is only the
            instrumentation label.
        kernel: explicit stage function bypassing the registry — how the
            serving engine binds its fused multi-request kernels while
            still executing through this one graph.
    """

    stage: Stage
    backend: str | None = None
    kernel: StageFn | None = None


#: The full FMCW sense plan (Detect runs lazily via the result mixin).
SENSE_PLAN: tuple[StageBinding, ...] = tuple(
    StageBinding(stage) for stage in (
        Stage.EMIT, Stage.SYNTHESIZE, Stage.RANGE_FFT,
        Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM,
    )
)

#: The receive-only sub-plan: a beat cube already in ``workspace["frames"]``.
RECEIVE_PLAN: tuple[StageBinding, ...] = SENSE_PLAN[2:]


def execute(plan: Sequence[StageBinding],
            ctx: ExecutionContext) -> ExecutionContext:
    """Run ``plan`` in order against ``ctx``, timing every stage.

    Each binding resolves to a kernel (explicit ``kernel`` > explicit
    ``backend`` > ``ctx.overrides`` > environment default via
    :func:`default_backend`), runs it against the shared context, and
    observes its wall time into the per-stage histograms. Returns ``ctx``
    for chaining.
    """
    for binding in plan:
        if binding.kernel is not None:
            run = binding.kernel
            backend = binding.backend or "custom"
        else:
            backend_name = binding.backend
            if backend_name is None:
                backend_name = ctx.overrides.get(binding.stage)
            kernel = KERNELS.resolve(binding.stage, backend_name)
            run = kernel.run
            backend = kernel.backend
        started = time.perf_counter()
        run(ctx)
        _observe_stage(binding.stage, backend, time.perf_counter() - started,
                       ctx)
    return ctx


# --------------------------------------------------------------------------
# Emit
# --------------------------------------------------------------------------


@KERNELS.register(Stage.EMIT, SHARED_BACKEND)
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


@KERNELS.register(Stage.SYNTHESIZE, "naive",
                  frame_fn=synthesize_frame_naive)
def _synthesize_naive(ctx: ExecutionContext) -> None:
    """Reference per-frame synthesis loop over the emitted components."""
    emission: Emission = ctx.workspace["components"]
    frames = np.stack([
        synthesize_frame_naive(frame_components, ctx.config, ctx.array, None)
        for frame_components in emission.frame_components()
    ])
    noise = ctx.workspace.get("noise")
    if noise is not None:
        frames += noise
    ctx.workspace["frames"] = frames


@KERNELS.register(Stage.SYNTHESIZE, "vectorized",
                  frame_fn=synthesize_frame_vectorized)
def _synthesize_vectorized(ctx: ExecutionContext) -> None:
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


@KERNELS.register(Stage.RANGE_FFT, "naive")
def _range_fft_naive(ctx: ExecutionContext) -> None:
    """Per-frame windowed range FFT (the reference loop)."""
    ctx.workspace["raw_profiles"] = np.stack([
        frame_range_profiles(frame, ctx.config)
        for frame in ctx.workspace["frames"]
    ])
    ctx.workspace["ranges_full"] = range_axis(
        ctx.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR
    )


@KERNELS.register(Stage.RANGE_FFT, "vectorized")
def _range_fft_vectorized(ctx: ExecutionContext) -> None:
    """Whole-cube blocked range FFT (PR 3 engine)."""
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
    subtraction, so both backends cut the cube down *before* differencing
    and the difference pass touches only the in-room slice.
    """
    keep = range_keep_mask(ctx.workspace["ranges_full"],
                           min_range=ctx.min_range, max_range=ctx.max_range)
    ctx.workspace["keep"] = keep
    ctx.workspace["ranges"] = ctx.workspace["ranges_full"][keep]
    return np.ascontiguousarray(ctx.workspace["raw_profiles"][:, :, keep])


@KERNELS.register(Stage.BACKGROUND_SUBTRACT, "naive")
def _subtract_naive(ctx: ExecutionContext) -> None:
    """Reference frame-chained subtraction (one warmup frame of zeros)."""
    kept = _crop_raw_profiles(ctx)
    subtracted = ctx.buffer("subtracted", kept.shape, kept.dtype)
    previous: np.ndarray | None = None
    for f in range(kept.shape[0]):
        subtracted[f] = background_subtract(kept[f], previous)
        previous = kept[f]
    ctx.workspace["subtracted"] = subtracted


@KERNELS.register(Stage.BACKGROUND_SUBTRACT, "vectorized")
def _subtract_vectorized(ctx: ExecutionContext) -> None:
    """Single shifted-difference pass over the cropped cube."""
    ctx.workspace["subtracted"] = batched_background_subtract(
        _crop_raw_profiles(ctx)
    )


# --------------------------------------------------------------------------
# Beamform
# --------------------------------------------------------------------------


@KERNELS.register(Stage.BEAMFORM, "naive")
def _beamform_naive(ctx: ExecutionContext) -> None:
    """Reference per-frame Eq. 2 beamforming.

    Each frame gets fresh, writable axis arrays — exactly the reference
    path's behavior, and deliberately unlike the vectorized kernel's
    frozen shared planes.
    """
    angles = ctx.config.angle_grid()
    ranges = ctx.workspace["ranges"]
    subtracted = ctx.workspace["subtracted"]
    profiles: list[RangeAngleProfile] = []
    for f, t in enumerate(ctx.times):
        power = ctx.array.beamform(subtracted[f], angles)
        profiles.append(RangeAngleProfile(power=power.T, ranges=ranges.copy(),
                                          angles=angles.copy(),
                                          time=float(t)))
    ctx.workspace["profiles"] = profiles


@KERNELS.register(Stage.BEAMFORM, "vectorized")
def _beamform_vectorized(ctx: ExecutionContext) -> None:
    """Lag-domain Eq. 2 over the whole sweep (PR 3 engine).

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


# --------------------------------------------------------------------------
# Detect
# --------------------------------------------------------------------------


@KERNELS.register(Stage.DETECT, SHARED_BACKEND)
def _detect_tracks(ctx: ExecutionContext) -> None:
    """Peak detection + Kalman trajectory extraction over the profiles."""
    ctx.workspace["tracks"] = extract_tracks(
        ctx.workspace["profiles"], ctx.array,
        ctx.workspace.get("tracker_config"),
    )


@KERNELS.register(Stage.DETECT, "streaming")
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
        execute((StageBinding(Stage.DETECT),), ctx)
        result: list[Track] = ctx.workspace["tracks"]
        return result

    def stream_tracks(self, tracker_config: TrackerConfig | None = None,
                      tracker: StreamingTracker | None = None,
                      ) -> StreamingTracker:
        """Feed the profiles frame-by-frame into an incremental tracker.

        Runs the Detect stage's ``"streaming"`` kernel through the
        instrumented executor and returns the primed
        :class:`StreamingTracker` — read ``tracks()`` off it, keep
        ingesting later profiles, or checkpoint it. Pass ``tracker`` to
        continue an existing session instead of starting fresh;
        ``tracker_config`` is ignored in that case (the tracker already
        owns its config), and the tracker adopts this result's ``array``,
        which sensed the profiles it is about to locate.
        """
        ctx = ExecutionContext(array=self.array, times=self.times)
        ctx.workspace["profiles"] = self.profiles
        ctx.workspace["tracker_config"] = tracker_config
        if tracker is not None:
            ctx.workspace["tracker"] = tracker
        execute((StageBinding(Stage.DETECT, backend="streaming"),), ctx)
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
