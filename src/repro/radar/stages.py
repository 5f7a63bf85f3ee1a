"""The receive chain: one sense path for one request or a batch.

The paper's processing chain (Sec. 9.1) is a fixed sequence of stages:

    Emit -> Synthesize -> RangeFFT -> BackgroundSubtract -> Beamform -> Detect

Each stage has one kernel, a function over arrays, and each run of a
stage happens inside :func:`timed`, which observes its wall time into the
stage's histogram, ``stages.<stage>.wall_s``, of the process registry
(:func:`stage_metrics`, which is :func:`repro.obs.process_metrics`):

- :func:`emit_requests` is Emit over a list of requests with equal
  configuration (one :class:`SenseInput` each): their packed paths, and
  their thermal noise cube when the configuration has a noise floor.
- Synthesize is :func:`~repro.radar.batch.synthesize_packed` and RangeFFT
  :func:`~repro.radar.pipeline.batched_range_profiles`, each over the
  requests' stacked ``(F, K, N)`` beat cube (``F`` is their summed frame
  count, request after request).
- :func:`receive` is BackgroundSubtract and Beamform over the stacked
  range profiles, split back into one :class:`SensingResult` per request.
  Every sense path (FMCW, pulsed, a served batch, :func:`process_sweep`
  on a beat cube) returns those.
- :func:`sense_requests` composes the FMCW chain. ``FmcwRadar.sense``
  runs it on a list of one, the serving engine on its key-homogeneous
  batch. Each request's draws come from its own generator in the order
  of a lone sense, and each request's Eq. 2 GEMM has its own shape, so a
  request's bits do not depend on which batch it rode in.
- Detect runs on demand on a finished result:
  :meth:`SensingResult.tracks` and :meth:`SensingResult.stream_tracks`
  ingest the result's range-angle profiles into a
  :class:`~repro.radar.tracker.StreamingTracker`, fresh or a serving
  session's.

The per-frame reference bodies these kernels replaced live on as test
oracles (``tests/receive_oracle.py``); the equivalence suites
(``tests/test_frontend_equivalence.py``,
``tests/test_pipeline_equivalence.py``) pin every kernel to them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import itertools
import math
import time
from collections.abc import Iterator, Sequence
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
    "MAX_SWEEP_BYTES",
    "SenseInput",
    "Stage",
    "SensingResult",
    "emit_requests",
    "frame_count",
    "process_sweep",
    "receive",
    "sense_requests",
    "stage_metrics",
    "timed",
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


#: The process registry, which holds one wall-time histogram per stage,
#: ``stages.<stage>.wall_s``, whose count is the stage's run count.
stage_metrics = process_metrics


@contextlib.contextmanager
def timed(stage: Stage) -> Iterator[None]:
    """Observe the block's wall time into ``stages.<stage>.wall_s``.

    A block that completes is one observation; a block that raises is
    none.
    """
    started = time.perf_counter()
    yield
    observe_wall(f"stages.{stage.value}.wall_s", started)


class SenseInput(NamedTuple):
    """One request of a sense run: what to sense, when, and its draws.

    Attributes:
        scene: the scene being sensed.
        times: the request's frame capture times, seconds.
        rng: the request's own generator; ``None`` for scenes that draw
            nothing under a noiseless configuration.
    """

    scene: "Scene"
    times: np.ndarray
    rng: np.random.Generator | None


def _frame_offsets(times: Sequence[np.ndarray]) -> list[int]:
    """Where each request's frames start in the stacked cubes, plus ``F``."""
    return [0, *itertools.accumulate(int(t.shape[0]) for t in times)]


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
        with timed(Stage.DETECT):
            return self._ingest(tracker_config, None).tracks()

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
        with timed(Stage.DETECT):
            return self._ingest(tracker_config, tracker)

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


# --------------------------------------------------------------------------
# The stages
# --------------------------------------------------------------------------


def emit_requests(requests: Sequence[SenseInput], config: Any,
                  array: UniformLinearArray,
                  ) -> tuple[Emission, np.ndarray | None]:
    """Emit every request, one :func:`~repro.radar.emit.emit_paths` per scene.

    Geometry is shared by the requests of a scene; draws are not — each
    request replays its own generator in the order of a lone sense call.
    ``config`` is a ``RadarConfig`` or a ``PulsedRadarConfig``.

    Returns:
        The requests' packed paths, request after request, and, with a
        positive noise floor, the ``(F, K, N)`` cube of their thermal
        noise, drawn frame by frame after each frame's paths (``None``
        without one).
    """
    with timed(Stage.EMIT):
        offsets = _frame_offsets([request.times for request in requests])
        noise = (np.empty((offsets[-1], *config.frame_shape), dtype=complex)
                 if config.noise_std > 0 else None)
        by_scene: dict[int, list[int]] = {}
        for i, request in enumerate(requests):
            by_scene.setdefault(id(request.scene), []).append(i)
        emissions: dict[int, Emission] = {}
        for members in by_scene.values():
            scene = requests[members[0]].scene
            emitted = emit_paths(
                scene.entities, scene.channel, array,
                [requests[i].times for i in members],
                [requests[i].rng for i in members],
                occlusion=scene.occlusion,
                noise=(None if noise is None else
                       [noise[offsets[i]:offsets[i + 1]] for i in members]),
                noise_std=config.noise_std)
            emissions.update(zip(members, emitted))
        if len(requests) == 1:
            return emissions[0], noise
        ordered = [emissions[i] for i in range(len(requests))]
        return Emission(np.concatenate([e.columns for e in ordered], axis=1),
                        np.concatenate([e.counts for e in ordered])), noise


def _range_fft(frames: np.ndarray,
               config: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """One blocked range FFT over a stacked beat cube, and its range axis."""
    with timed(Stage.RANGE_FFT):
        return (batched_range_profiles(frames, config),
                range_axis(config.chirp, zero_pad_factor=ZERO_PAD_FACTOR))


def receive(raw_profiles: np.ndarray, range_bins: np.ndarray,
            times: Sequence[np.ndarray], config: Any,
            array: UniformLinearArray, *, max_range: float | None,
            min_range: float) -> list[SensingResult]:
    """BackgroundSubtract and Beamform, then one result per request.

    ``raw_profiles`` is the requests' stacked ``(F, K, B)`` cube over the
    ``range_bins`` axis and ``times`` their frame times in stacking order;
    each result's raw profiles are a view of its request's frames.

    BackgroundSubtract crops the range axis to ``[min_range, max_range]``
    first (cropping commutes exactly with the elementwise difference),
    then takes one shifted difference over the stacked cube with each
    request's first frame re-zeroed, so no request sees the previous
    one's last frame. Beamform computes cube-wide lag vectors, then one
    Eq. 2 GEMM per request whose shape depends only on the request, so
    its bits do not depend on the batch around it: requests with equal
    frame counts share one stacked matmul whose slices are exactly those
    GEMMs, and a request alone runs on a ``[None]`` view of its lag block.
    """
    offsets = _frame_offsets(times)
    with timed(Stage.BACKGROUND_SUBTRACT):
        keep = range_keep_mask(range_bins, min_range=min_range,
                               max_range=max_range)
        ranges = range_bins[keep]
        ranges.flags.writeable = False
        subtracted = batched_background_subtract(
            np.ascontiguousarray(raw_profiles[:, :, keep]))
        subtracted[offsets[:-1]] = 0.0
    with timed(Stage.BEAMFORM):
        angles = config.angle_grid()
        angles.flags.writeable = False
        num_bins = int(ranges.shape[0])
        num_angles = int(angles.shape[0])
        lag_vectors = batched_lag_vectors(subtracted, array)
        by_frame_count: dict[int, list[int]] = {}
        for i in range(len(times)):
            by_frame_count.setdefault(offsets[i + 1] - offsets[i],
                                      []).append(i)
        power_cubes: dict[int, np.ndarray] = {}
        for num_frames, group in by_frame_count.items():
            blocks = [lag_vectors[offsets[i] * num_bins:
                                  offsets[i + 1] * num_bins] for i in group]
            stack = blocks[0][None] if len(blocks) == 1 else np.stack(blocks)
            power = beamform_from_lags_stacked(stack, array, angles)
            for slot, i in enumerate(group):
                cube = power[slot].reshape(num_frames, num_bins, num_angles)
                cube.flags.writeable = False
                power_cubes[i] = cube
    range_bins.flags.writeable = False
    return [
        SensingResult(
            times=request_times,
            raw_profiles=raw_profiles[offsets[i]:offsets[i + 1]],
            power_cube=power_cubes[i], ranges=ranges, angles=angles,
            range_bins=range_bins, config=config, array=array)
        for i, request_times in enumerate(times)
    ]


def sense_requests(requests: Sequence[SenseInput], config: RadarConfig,
                   array: UniformLinearArray, *, max_range: float | None,
                   min_range: float) -> list[SensingResult]:
    """The FMCW chain over requests sharing ``config`` and the crop.

    Emit, one packed synthesis pass over every request's paths (the tones
    are added into the emitted noise cube when there is one; the sum is
    the same either way round), one blocked range FFT, then
    :func:`receive`.
    """
    emission, noise = emit_requests(requests, config, array)
    with timed(Stage.SYNTHESIZE):
        frames = synthesize_packed(emission.columns, emission.counts, config,
                                   array, out=noise)
    # With a noise floor, ``frames`` is the noise cube. Nothing downstream
    # reads the beat cube, and a serving worker holding it through
    # Beamform raises peak memory, so neither name outlives the range FFT.
    del noise
    raw_profiles, range_bins = _range_fft(frames, config)
    del frames
    return receive(raw_profiles, range_bins,
                   [request.times for request in requests], config, array,
                   max_range=max_range, min_range=min_range)


def process_sweep(frames: np.ndarray, config: RadarConfig,
                  array: UniformLinearArray, times: np.ndarray, *,
                  max_range: float | None = None,
                  min_range: float | None = None) -> SensingResult:
    """Run the receive stages on a beat cube captured elsewhere.

    The library entry point for a beat cube: the range FFT and
    :func:`receive`, the kernels ``FmcwRadar.sense`` runs after synthesis,
    on a request of one. The result tracks and reads phase like any
    sensed one.

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
    raw_profiles, range_bins = _range_fft(frames, config)
    [result] = receive(
        raw_profiles, range_bins, [times], config, array,
        max_range=max_range,
        min_range=config.min_range if min_range is None else min_range)
    return result
