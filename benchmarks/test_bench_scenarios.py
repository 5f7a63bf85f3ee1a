"""Build-and-sense timing sweep over the whole scenario catalog.

Every registered scenario is resolved, built, and sensed on the short
golden chirp, timing the two phases separately. The per-scenario wall
times land in ``scenario-timings.json``, uploaded by the benchmarks job
next to the stage-timing artifact — so a slow new scenario, or a regression in
the builders, is visible per catalog entry.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from benchmarks.conftest import write_timings
from repro.radar import FmcwRadar
from repro.scenarios import build, scenario_names
from repro.signal.chirp import ChirpConfig

BENCH_CHIRP_DURATION_S = 6.4e-5
BENCH_SENSE_DURATION_S = 0.8

#: Accumulated per-scenario timings, dumped by the trailing zz test.
_TIMINGS: dict[str, float] = {}


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_build_and_sense(name):
    started = time.perf_counter()
    built = build(name)
    scene = built.build_scene()
    built_s = time.perf_counter() - started

    config = dataclasses.replace(
        built.radar_configs[0],
        chirp=ChirpConfig(duration=BENCH_CHIRP_DURATION_S),
    )
    started = time.perf_counter()
    result = FmcwRadar(config).sense(scene, BENCH_SENSE_DURATION_S,
                                     rng=np.random.default_rng(0))
    sense_s = time.perf_counter() - started

    assert result.profiles, name
    _TIMINGS[f"{name}.build_s"] = built_s
    _TIMINGS[f"{name}.sense_s"] = sense_s
    print(f"\n{name}: build {built_s * 1e3:.1f}ms, "
          f"sense {sense_s * 1e3:.1f}ms")


def test_zz_dump_scenario_timings():
    """Write the accumulated per-scenario timings (runs last by name)."""
    assert set(_TIMINGS) == {f"{name}.{phase}_s" for name in scenario_names()
                             for phase in ("build", "sense")}
    write_timings("scenario-timings.json", _TIMINGS)
