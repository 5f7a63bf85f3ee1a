"""Per-stage timing benches for the stage functions and their timer.

Every sense path runs through ``repro.radar.stages``; this bench exercises
the FMCW and pulsed radars, checks that every stage's wall-time histogram
actually accumulated observations, and dumps each stage's total wall time
to ``stage-timings.json`` — the benchmarks job uploads it next to the
pytest-benchmark artifacts, so a perf regression can be localized to the
stage that moved.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_timings
from repro.geometry import Rectangle
from repro.radar import (
    FmcwRadar,
    PulsedRadar,
    PulsedRadarConfig,
    RadarConfig,
    Scene,
    Stage,
    stage_metrics,
)
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory


def bench_scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    scene = Scene(room)
    scene.add_static((2.0, 3.0))
    walk = Trajectory(np.linspace([2.0, 2.0], [5.5, 4.0], 40), dt=0.1)
    scene.add_human(walk)
    return scene


def test_fmcw_stage_timings():
    radar = FmcwRadar(RadarConfig(chirp=ChirpConfig(duration=6.4e-5)))
    result = radar.sense(bench_scene(), 1.0,
                         rng=np.random.default_rng(0))
    result.tracks()
    histograms = stage_metrics().snapshot()["histograms"]
    for stage in Stage:
        name = f"stages.{stage.value}.wall_s"
        assert histograms.get(name, {}).get("count", 0) > 0, name


def test_pulsed_stage_timings():
    radar = PulsedRadar(PulsedRadarConfig(sample_rate=2.0e9, max_range=10.0))
    before = stage_metrics().snapshot()["histograms"]
    radar.sense(bench_scene(), 1.0, rng=np.random.default_rng(1))
    after = stage_metrics().snapshot()["histograms"]
    for stage in ("synthesize", "background_subtract"):
        name = f"stages.{stage}.wall_s"
        assert (after[name]["count"]
                == before.get(name, {"count": 0})["count"] + 1), name


def test_zz_dump_stage_timings():
    """Write the accumulated per-stage wall times (runs last by name)."""
    timings = {name: data["sum"] for name, data
               in stage_metrics().snapshot()["histograms"].items()
               if name.startswith("stages.")}
    assert timings, "no stage timings accumulated"
    write_timings("stage-timings.json", timings)
