"""FMCW radar simulator: the eavesdropper (and legitimate sensor) substrate.

The paper evaluates RF-Protect against a custom 6--7 GHz FMCW radar with a
7-antenna array (Sec. 9.1). This package reproduces that radar in software:
scene emission as packed path columns (`emit`), beat-signal synthesis
(`frontend`, `batch`), the paper's range/angle processing pipeline with
background subtraction (`processing`, `pipeline`), and the trajectory
extraction stage with Kalman tracking (`tracker`).

Every sense path — FMCW, pulsed, the serving engine, the experiments
runner, `process_sweep` on a beat cube — executes through the stage-graph
executor in `stages`: a typed Emit → Synthesize → RangeFFT →
BackgroundSubtract → Beamform plan that binds one kernel per stage, with
per-stage wall-time instrumentation, and returns one `SensingResult` per
request; Detect runs on demand on that result (``.tracks()``). Each stage
has one way in: the kernels run over a list of requests, so a direct
`FmcwRadar.sense` is a list of one, a served batch a longer list, and
one frame is a sweep of one (`emit_paths`, `synthesize_packed`).
"""

from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.config import RadarConfig
from repro.radar.frontend import SYNTH_STATS, PathComponent, SynthesisStats
from repro.radar.batch import synthesize_packed
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
from repro.radar.pulsed import PulsedRadar, PulsedRadarConfig
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.scene import (
    Fan,
    HumanTarget,
    OcclusionSpec,
    Scene,
    StaticReflector,
)
from repro.radar.stages import (
    RECEIVE_PLAN,
    SENSE_PLAN,
    ExecutionContext,
    SenseInput,
    Stage,
    StageBinding,
    execute,
    process_sweep,
    stage_metrics,
    sweep_results,
)
from repro.radar.tracker import (
    KalmanTracker2D,
    StreamingTracker,
    Track,
    TrackerConfig,
    track_detections,
)

__all__ = [
    "ChannelModel",
    "Emission",
    "ExecutionContext",
    "Fan",
    "FmcwRadar",
    "HumanTarget",
    "KalmanTracker2D",
    "OcclusionSpec",
    "PathComponent",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "SYNTH_STATS",
    "SynthesisStats",
    "PulsedRadar",
    "PulsedRadarConfig",
    "RadarConfig",
    "RangeAngleProfile",
    "Scene",
    "SenseInput",
    "SensingResult",
    "Stage",
    "StageBinding",
    "StaticReflector",
    "StreamingTracker",
    "Track",
    "TrackerConfig",
    "UniformLinearArray",
    "ZERO_PAD_FACTOR",
    "emit_paths",
    "execute",
    "stage_metrics",
    "sweep_results",
    "batched_background_subtract",
    "batched_lag_vectors",
    "batched_range_profiles",
    "beamform_from_lags_stacked",
    "process_sweep",
    "range_keep_mask",
    "synthesize_packed",
    "track_detections",
]
