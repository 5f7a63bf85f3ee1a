"""FMCW radar simulator: the eavesdropper (and legitimate sensor) substrate.

The paper evaluates RF-Protect against a custom 6--7 GHz FMCW radar with a
7-antenna array (Sec. 9.1). This package reproduces that radar in software:
scene emission as packed path columns (`emit`), beat-signal synthesis
(`frontend`, `batch`), the paper's range/angle processing pipeline with
background subtraction (`processing`, `pipeline`), and the trajectory
extraction stage with Kalman tracking (`tracker`).

Every sense path — FMCW, pulsed, the serving engine, the experiments
runner, `process_sweep` on a beat cube — calls the stage functions of
`stages` in the order Emit → Synthesize → RangeFFT → BackgroundSubtract →
Beamform, each timed into its per-stage wall-time histogram, and returns
one `SensingResult` per request; Detect runs on demand on that result
(``.tracks()``). Each stage has one way in: the kernels run over a list
of requests, so a direct `FmcwRadar.sense` is a list of one, a served
batch a longer list, and one frame is a sweep of one (`emit_paths`,
`synthesize_packed`).
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
    SenseInput,
    Stage,
    process_sweep,
    stage_metrics,
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
    "Fan",
    "FmcwRadar",
    "HumanTarget",
    "KalmanTracker2D",
    "OcclusionSpec",
    "PathComponent",
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
    "StaticReflector",
    "StreamingTracker",
    "Track",
    "TrackerConfig",
    "UniformLinearArray",
    "ZERO_PAD_FACTOR",
    "emit_paths",
    "stage_metrics",
    "batched_background_subtract",
    "batched_lag_vectors",
    "batched_range_profiles",
    "beamform_from_lags_stacked",
    "process_sweep",
    "range_keep_mask",
    "synthesize_packed",
    "track_detections",
]
