"""The benchmark's own tests: smoke runs, exact-repeat counts, checks.

Run from the repository root: ``python3 -m pytest perfbench -q``. Each
workload runs once untraced and once traced at minimal size (``serve``
still runs its minimum rounds), which takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from common import ROOT
from spans import Tracer, _covered

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def bench(workload: str, *, trace: int, seed: int = 0, cwd: Path = ROOT,
          ) -> tuple[int, dict[str, Any] | None, dict[str, int] | None]:
    """Run the benchmark; returns exit code, result line and counts line."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None, None
    counts = next(json.loads(line[len("counts "):]) for line in lines
                  if line.startswith("counts "))
    return proc.returncode, json.loads(lines[-1]), counts


_RUNS: dict[tuple[str, int], tuple[int, Any, Any]] = {}


def cached(workload: str, trace: int) -> tuple[int, Any, Any]:
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = bench(workload, trace=trace)
    return _RUNS[workload, trace]


def test_benchmark_json_matches_the_runner():
    import run

    assert WORKLOADS == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, result, _ = cached(workload, trace)
    assert code == 0 and result is not None
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    _, _, untraced = cached(workload, 0)
    _, _, traced = cached(workload, 1)
    assert untraced is not None and untraced == traced


@pytest.mark.parametrize("workload,wrong", [
    ("figures", {"digest": "0" * 64}),
    ("gan-step", {"0": [[0.0, 0.0]] * 64}),
])
def test_wrong_reference_fails_every_op(tmp_path, workload, wrong):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (tmp_path / "perfbench" / "reference.json").write_text(
        json.dumps({workload: wrong}), encoding="utf-8")
    code, result, _ = bench(workload, trace=0, cwd=tmp_path)
    assert code == 0 and result is not None
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def copy_benchmark(directory: Path) -> None:
    """Copy ``BENCHMARK.json`` and the benchmark's files into ``directory``."""
    shutil.copy(ROOT / "BENCHMARK.json", directory / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", directory / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    code, result, _ = bench("gan-step", trace=0, cwd=tmp_path)
    assert code != 0 and result is None


def test_self_time_subtracts_the_union_of_children():
    assert _covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0
    tracer = Tracer(True)
    root = tracer.add("root", 0.0, 10.0)
    tracer.add("child", 1.0, 4.0, parent=root)
    tracer.add("child", 3.0, 6.0, parent=root)
    summary = tracer.self_times()
    assert summary["root"]["self_s"] == pytest.approx(5.0)
    assert summary["child"]["count"] == 2
