"""``figures``: one op is one cold ``rfprotect run all --fast`` command.

Each op starts a fresh interpreter on ``figures_child.py``, which imports
``repro.cli`` and runs every experiment serially with its fast preset and
default seed, as users run it. The command takes no input, so the
workload seed selects nothing here. Import stays inside the op because
users pay it on every run. Commands run one at a time with
``RF_PROTECT_*`` cleared and one BLAS thread. Set-up compiles the
program's bytecode and imports ``repro.cli`` in a fresh interpreter, which
also warms the file cache. One set-up build runs before each op and
``setup_s`` reports their median. A build lasts about a second, and on a
shared 2-vCPU virtual machine CPU speed was seen to drift by up to 1.7x
over tens of seconds: builds bunched at the start of a run would all see
one moment of that drift, while builds spread among the ops see what the
ops see. The run measures ops for ``--seconds`` seconds of command time;
the builds between them are not counted in it.

Output check per op: the command exits 0, all 11 tables are present, and
the digest of stdout without the ``finished in`` lines equals the stored
reference.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from typing import Any

from common import (EXPERIMENT_IDS, HERE, OUT_DIR, ROOT, STAGES, Outcome,
                    lstm_gflop, median, repeat_counts, setup_seconds,
                    summarize_ops)
from hostinfo import child_env
from spans import Tracer

FINISHED = re.compile(r"^\[(\S+) finished in [0-9.]+s\]$")

#: A hung command fails its op instead of stalling the run.
COMMAND_TIMEOUT_S = 60.0


def digest_and_tables(stdout: str) -> tuple[str, set[str]]:
    """Digest of stdout without timing lines, and the tables it holds."""
    kept, tables = [], set()
    for line in stdout.splitlines():
        match = FINISHED.match(line)
        if match:
            tables.add(match.group(1))
        else:
            kept.append(line)
    text = "\n".join(kept).encode("utf-8")
    return hashlib.sha256(text).hexdigest(), tables


class Command:
    """Runs the child command and parses its stdout and report."""

    def __init__(self, traced: bool) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.report_path = OUT_DIR / f"figures-child-{os.getpid()}.json"
        self.argv = [sys.executable, str(HERE / "figures_child.py"),
                     "--report", str(self.report_path)]
        if traced:
            self.argv.append("--trace")
        self.env = child_env(ROOT)

    def warm_up(self) -> None:
        """Compile the program's bytecode and import it in a fresh process."""
        compileall.compile_dir(ROOT / "src", quiet=1)
        subprocess.run([*self.argv, "--import-only"], cwd=ROOT, env=self.env,
                       capture_output=True, check=True,
                       timeout=COMMAND_TIMEOUT_S)

    def run(self) -> tuple[float, float, str | None, dict[str, Any] | None]:
        """(start, elapsed, digest or None on failure, child report)."""
        self.report_path.unlink(missing_ok=True)
        started = time.perf_counter()
        try:
            proc = subprocess.run(self.argv, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return started, time.perf_counter() - started, None, None
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return started, elapsed, None, None
        digest, tables = digest_and_tables(proc.stdout)
        if tables != set(EXPERIMENT_IDS):
            return started, elapsed, None, None
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return started, elapsed, digest, report


def _op_layers(report: dict[str, Any]) -> dict[str, float]:
    """Per-layer figures of one command from its child report."""
    layers = dict(report["counters"])
    start, end = report["import"]
    layers["cli.import_s"] = end - start
    passed = 0.0
    for experiment_id, started, finished in report["experiments"]:
        layers[f"experiments.{experiment_id}_s"] = finished - started
        passed += finished - started
    staged = sum(layers[f"radar.{stage}_s"] for stage in STAGES)
    layers["experiments.unstaged_s"] = (
        passed - staged - layers["gan.d_step_s"] - layers["gan.g_step_s"])
    probes = report["probes"]
    layers["nn.optim_s"] = probes["optim_s"]
    layers["nn.lstm_gflop"] = lstm_gflop(probes["fwd_flops"],
                                         probes["fwd_layer_calls"],
                                         layers["nn.lstm_bwd.calls"])
    return layers


def run(*, seed: int, seconds: float, tracer: Tracer,
        reference: dict[str, Any], t_start: float) -> Outcome:
    command = Command(tracer.enabled)
    expected = reference["digest"]
    digests: set[str] = set()

    builds_started = time.perf_counter()
    builds: list[float] = []
    op_s: list[float] = []
    layers: list[dict[str, float]] = []
    failed = 0
    while sum(op_s) < seconds:
        began = time.perf_counter()
        command.warm_up()
        builds.append(time.perf_counter() - began)
        op_started, elapsed, digest, report = command.run()
        op_s.append(elapsed)
        if digest is not None:
            digests.add(digest)
        if digest is None or digest != expected or report is None:
            failed += 1
            continue
        layers.append(_op_layers(report))
        if tracer.enabled:
            op_id = tracer.add("figures.command", op_started,
                               op_started + elapsed,
                               request=f"op-{len(op_s)}")
            tracer.add("cli.import", *report["import"], parent=op_id,
                       request=f"op-{len(op_s)}")
            for experiment_id, begin, end in report["experiments"]:
                tracer.add(f"experiments.{experiment_id}", begin, end,
                           parent=op_id, request=f"op-{len(op_s)}")
    wall_s = sum(op_s)
    command.report_path.unlink(missing_ok=True)

    summary = summarize_ops(layers) if layers else {}
    if tracer.enabled:
        metrics = dict(summary)
        metrics["trace.op_p50_ms"] = median(op_s) * 1e3
    else:
        metrics = {
            "setup_s": setup_seconds(t_start, builds_started, builds),
            "op_p50_ms": median(op_s) * 1e3,
            "ops_per_s": (len(op_s) - failed) / wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    return Outcome(attempted=len(op_s), failed=failed, metrics=metrics,
                   counts=repeat_counts(summary),
                   detail={"ops": len(op_s), "wall_s": wall_s,
                           "op_ms": [round(value * 1e3, 1) for value in op_s],
                           "setup_ms": [round(value * 1e3, 1)
                                        for value in builds],
                           "digests": sorted(digests)})
