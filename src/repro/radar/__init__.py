"""FMCW radar simulator: the eavesdropper (and legitimate sensor) substrate.

The paper evaluates RF-Protect against a custom 6--7 GHz FMCW radar with a
7-antenna array (Sec. 9.1). This package reproduces that radar in software:
scene emission as packed path columns (`emit`), beat-signal synthesis
(`frontend`, `batch`), the paper's range/angle processing pipeline with
background subtraction (`processing`), and the trajectory extraction stage
with Kalman tracking (`tracker`).

Every sense path — FMCW, pulsed, the serving engine, the experiments
runner — executes through the stage-graph executor in `stages`: a typed
Emit → Synthesize → RangeFFT → BackgroundSubtract → Beamform → Detect
plan whose kernels resolve from one registration-based registry
(`KERNELS`), with per-stage wall-time instrumentation.
"""

from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.config import RadarConfig
from repro.radar.frontend import (
    SYNTH_STATS,
    PathComponent,
    SynthesisStats,
    synthesis_backend,
    synthesize_frame,
    synthesize_frame_naive,
)
from repro.radar.batch import (
    PackedComponents,
    pack_components,
    synthesize_frame_vectorized,
    synthesize_frames,
    synthesize_packed,
)
from repro.radar.emit import Emission, emit_paths
from repro.radar.pipeline import (
    SweepProcessingResult,
    batched_background_subtract,
    batched_beamform_power,
    batched_lag_vectors,
    batched_range_profiles,
    beamform_from_lags,
    pipeline_backend,
    process_sweep,
)
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    background_subtract,
    compute_range_angle_map,
    frame_range_profiles,
    range_keep_mask,
)
from repro.radar.pulsed import PulsedRadar, PulsedRadarConfig, PulsedSensingResult
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.scene import (
    Fan,
    HumanTarget,
    OcclusionSpec,
    Scene,
    StaticReflector,
)
from repro.radar.stages import (
    KERNELS,
    RECEIVE_PLAN,
    SENSE_PLAN,
    ExecutionContext,
    KernelRegistry,
    Stage,
    StageBinding,
    StageKernel,
    backend_overrides,
    default_backend,
    execute,
    frame_synthesizer,
    stage_metrics,
)
from repro.radar.tracker import (
    KalmanTracker2D,
    StreamingTracker,
    Track,
    TrackerConfig,
    extract_tracks,
    hungarian_assignment,
    track_detections,
)

__all__ = [
    "ChannelModel",
    "Emission",
    "ExecutionContext",
    "Fan",
    "FmcwRadar",
    "HumanTarget",
    "KERNELS",
    "KalmanTracker2D",
    "KernelRegistry",
    "OcclusionSpec",
    "PackedComponents",
    "PathComponent",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "SYNTH_STATS",
    "SynthesisStats",
    "PulsedRadar",
    "PulsedRadarConfig",
    "PulsedSensingResult",
    "RadarConfig",
    "RangeAngleProfile",
    "Scene",
    "SensingResult",
    "Stage",
    "StageBinding",
    "StageKernel",
    "StaticReflector",
    "StreamingTracker",
    "SweepProcessingResult",
    "Track",
    "TrackerConfig",
    "UniformLinearArray",
    "ZERO_PAD_FACTOR",
    "backend_overrides",
    "default_backend",
    "emit_paths",
    "execute",
    "frame_synthesizer",
    "stage_metrics",
    "background_subtract",
    "batched_background_subtract",
    "batched_beamform_power",
    "batched_lag_vectors",
    "batched_range_profiles",
    "beamform_from_lags",
    "compute_range_angle_map",
    "extract_tracks",
    "frame_range_profiles",
    "hungarian_assignment",
    "pack_components",
    "pipeline_backend",
    "process_sweep",
    "range_keep_mask",
    "synthesis_backend",
    "synthesize_frame",
    "synthesize_frame_naive",
    "synthesize_frame_vectorized",
    "synthesize_frames",
    "synthesize_packed",
    "track_detections",
]
