"""Tests for repro.obs: one process registry that every layer records into.

The stage timings, the nn op timings, the synthesis counts and the
tracker counts share one registry created when ``repro.obs`` is imported.
The module imports only the standard library, so recording a stage or an
LSTM scan loads nothing of the serving stack.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro.obs
from repro.geometry import Rectangle
from repro.obs import process_metrics
from repro.radar import FmcwRadar, RadarConfig, Scene
from repro.types import Trajectory

#: Runs in a fresh interpreter: what the CLI, one sense with Detect and
#: one LSTM forward and backward load, and where they record.
PROBE = """
import json, sys
import numpy as np
import repro.cli
from repro.geometry import Rectangle
from repro.nn import LSTM, Tensor, nn_metrics
from repro.radar import FmcwRadar, RadarConfig, Scene
from repro.radar.stages import stage_metrics
from repro.types import Trajectory

scene = Scene(Rectangle.from_size(10.0, 6.6))
scene.add_human(Trajectory(np.linspace([4.0, 2.0], [6.0, 4.0], 20), dt=0.1))
radar = FmcwRadar(RadarConfig(position=(5.0, 0.1), axis_angle=0.0,
                              facing_angle=np.pi / 2))
radar.sense(scene, 1.0, rng=np.random.default_rng(0)).tracks()
lstm = LSTM(3, 4, np.random.default_rng(1))
lstm.forward_sequence(Tensor(np.ones((5, 2, 3)), requires_grad=True)).mean().backward()
print(json.dumps({
    "loaded": [name for name in ("repro.serve", "asyncio")
               if name in sys.modules],
    "one_registry": stage_metrics() is nn_metrics(),
    "histograms": sorted(stage_metrics().snapshot()["histograms"]),
}))
"""


def test_obs_imports_only_the_standard_library():
    tree = ast.parse(Path(repro.obs.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert imported
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


def test_sensing_and_training_leave_the_serving_stack_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=300)
    report = json.loads(probe.stdout)
    assert report["loaded"] == []
    assert report["one_registry"]
    assert {"stages.detect.wall_s", "nn.lstm_sequence.wall_s",
            "nn.lstm_sequence_backward.wall_s"} <= set(report["histograms"])


def test_tracker_births_count_the_assigned_track_ids():
    """Two walkers: each track started is a birth, each one dropped a retirement."""
    scene = Scene(Rectangle.from_size(10.0, 6.6))
    for start, end in (([2.0, 2.0], [2.5, 5.0]), ([8.0, 5.0], [7.5, 2.0])):
        scene.add_human(Trajectory(np.linspace(start, end, 50),
                                   dt=4.0 / 49.0))
    radar = FmcwRadar(RadarConfig(position=(5.0, 0.1), axis_angle=0.0,
                                  facing_angle=np.pi / 2))
    result = radar.sense(scene, 4.0, rng=np.random.default_rng(6))

    def counters() -> dict[str, int]:
        return process_metrics().snapshot()["counters"]

    before = counters()
    tracker = result.stream_tracks()
    after = counters()
    births, retirements = (
        after[name] - before.get(name, 0)
        for name in ("tracker.births", "tracker.retirements"))
    assert births == tracker.checkpoint()["next_track_id"] - 1
    assert births >= 2
    assert births - retirements == len(tracker.active_tracks)
