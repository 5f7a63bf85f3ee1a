"""Shared configuration for the benchmark suite.

Each ``test_bench_*`` file regenerates one paper table/figure and prints the
same rows/series the paper reports (captured with ``pytest -s`` or shown in
the benchmark summary). Scales default to "minutes, not hours"; set
``RFPROTECT_BENCH_FULL=1`` to run the paper's full workload sizes (45
trajectories per environment, larger GAN sampling budgets).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import process_metrics

FULL_SCALE = os.environ.get("RFPROTECT_BENCH_FULL", "0") == "1"


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    """Workload sizes for the benchmark run."""
    if FULL_SCALE:
        return {
            "gan_quality": "full",
            "fig11_trajectories": 45,   # the paper's count per environment
            "fig12_samples": 300,
            "table1_raters": 32,
            "duration": 10.0,
        }
    return {
        "gan_quality": "fast",
        "fig11_trajectories": 10,
        "fig12_samples": 120,
        "table1_raters": 32,
        "duration": 10.0,
    }


def write_timings(filename: str, timings_s: dict[str, float]) -> None:
    """Dump named timings, seconds, as ``filename`` in the working directory.

    Every ``*-timings.json`` the benchmarks job uploads as a build artifact
    has one schema: ``{"timings_s": {<name>: seconds}, "metrics": <the
    process registry snapshot>}``.
    """
    payload = {"timings_s": timings_s,
               "metrics": process_metrics().snapshot()}
    with open(filename, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {filename}")


def emit(result) -> None:
    """Print a result's paper-style table into the captured output."""
    print()
    print(result.format_table())
