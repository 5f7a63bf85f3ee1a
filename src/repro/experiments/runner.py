"""Experiment registry: map paper figure/table ids to their run functions.

Besides the single-experiment entry point (:func:`run_experiment`), this
module provides :func:`run_experiments`, a process-parallel fan-out over
several experiment ids, one worker per usable CPU by default. Every
experiment receives the same options (a ``seed`` among them) whichever
worker runs it, so ``workers=1`` and ``workers=8`` produce bit-identical
results. Workers ship back what their runs added to the process registry
(:func:`repro.obs.process_metrics`: stage and nn timings, synthesis and
tracker counts), and the parent merges it, so the caller reads the same
counts at any worker count.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.errors import ExperimentError
from repro.experiments import (
    ext_floorplan,
    ext_multiradar,
    ext_pulsed,
    fig7,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table1,
)
from repro.nn.overlap import blas_threads, set_blas_threads, usable_cpus
from repro.obs import process_metrics

__all__ = [
    "EXPERIMENTS",
    "ExperimentRun",
    "ExperimentSpec",
    "run_experiment",
    "run_experiments",
]


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    experiment_id: str
    description: str
    run: Callable[..., Any]
    fast_options: dict[str, Any]
    """Keyword overrides that make the experiment finish in seconds."""


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig7",
            "Mutual information I(X;Z) vs phantom count M and activation q",
            fig7.run, {},
        ),
        ExperimentSpec(
            "fig9",
            "FMCW radar localization of shaped human walks",
            fig9.run, {"duration": 6.0},
        ),
        ExperimentSpec(
            "fig10",
            "Human vs phantom range-angle profiles; GAN trajectory replay",
            fig10.run, {"gan_quality": "tiny", "duration": 6.0},
        ),
        ExperimentSpec(
            "fig11",
            "2-D spoofing accuracy CDFs in home and office",
            fig11.run, {"num_trajectories": 4, "gan_quality": "tiny",
                        "duration": 6.0},
        ),
        ExperimentSpec(
            "fig12",
            "Normalized FID of GAN vs baselines, plus classifier detectability",
            fig12.run, {"num_samples": 40, "gan_quality": "tiny"},
        ),
        ExperimentSpec(
            "fig13",
            "Legitimate sensing: ghost filtering via the tag side channel",
            fig13.run, {"gan_quality": "tiny", "duration": 6.0},
        ),
        ExperimentSpec(
            "fig14",
            "Breathing-rate spoofing via the phase shifter",
            fig14.run, {"duration": 20.0},
        ),
        ExperimentSpec(
            "table1",
            "Simulated user study: perceived realness vs trueness",
            table1.run, {"gan_quality": "tiny", "num_raters": 8},
        ),
        ExperimentSpec(
            "ext-multiradar",
            "Extension (Sec. 13): dual-radar consistency attack on one tag",
            ext_multiradar.run, {"gan_quality": "tiny", "duration": 8.0},
        ),
        ExperimentSpec(
            "ext-pulsed",
            "Extension (Sec. 13): pulsed radar and delay-line spoofing",
            ext_pulsed.run, {"duration": 6.0},
        ),
        ExperimentSpec(
            "ext-floorplan",
            "Extension (Sec. 8): floor-plan-aware ghost trajectories",
            ext_floorplan.run, {"gan_quality": "tiny", "num_ghosts": 15},
        ),
    )
}


def _accepts_option(run: Callable[..., Any], name: str, *,
                    allow_var_keyword: bool = True) -> bool:
    """Whether ``run`` can receive a keyword option called ``name``."""
    parameters = inspect.signature(run).parameters.values()
    return any(
        (allow_var_keyword
         and parameter.kind is inspect.Parameter.VAR_KEYWORD)
        or parameter.name == name
        for parameter in parameters
    )


def run_experiment(experiment_id: str, *, fast: bool = False,
                   **options: Any) -> Any:
    """Run one experiment by id; ``fast=True`` applies quick-run options.

    Explicit keyword ``options`` override the fast presets. Two options
    are broadcast-friendly so ``rfprotect run all`` can pass them across
    the whole registry:

    - ``seed``: experiments whose run function takes no ``seed`` (fig7's
      mutual-information sweep is fully deterministic) simply ignore it.
    - ``scenario``: a registered scenario name (:mod:`repro.scenarios`).
      It is resolved through the scenario registry (unknown names raise)
      and becomes an ``environment=`` keyword for run functions that
      declare one; experiments without an ``environment`` parameter run
      unchanged.
    """
    spec = EXPERIMENTS.get(experiment_id)
    if spec is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        )
    kwargs = dict(spec.fast_options) if fast else {}
    kwargs.update(options)
    if "seed" in kwargs and not _accepts_option(spec.run, "seed"):
        del kwargs["seed"]
    scenario_name = kwargs.pop("scenario", None)
    if scenario_name:
        from repro.scenarios import build, get_scenario

        get_scenario(scenario_name)  # validate even for runs that ignore it
        if _accepts_option(spec.run, "environment",
                           allow_var_keyword=False):
            kwargs.setdefault("environment",
                              build(scenario_name).environment)
    return spec.run(**kwargs)


@dataclasses.dataclass(frozen=True)
class ExperimentRun:
    """Timing/result record for one executed experiment.

    Attributes:
        experiment_id: the registry id that was run.
        result: the experiment's result object (``Fig9Result`` etc.).
        elapsed_s: wall-clock runtime of the run function.
        options: the exact keyword overrides the run function received on
            top of any fast presets.
        stage_timings: per-stage wall-time deltas this run contributed to
            the ``stages.`` histograms of the process registry:
            ``{"stages.<stage>.wall_s": {"count": n, "wall_s": seconds}}``.
            Empty when the run ran no sensing stage (fig7's
            closed-form sweep, say).
    """

    experiment_id: str
    result: Any
    elapsed_s: float
    options: dict[str, Any]
    stage_timings: dict[str, Any] = dataclasses.field(default_factory=dict)

    def record(self) -> dict[str, Any]:
        """A self-describing JSON record of this run.

        Besides the timing/option summary, the record carries provenance
        (package version, the resolved ``RF_PROTECT_NN_DTYPE`` and its
        canonical hash — :mod:`repro.audit.provenance`) and a scalar
        summary of the result object, so a ledger entry holding it is
        auditable without re-running the experiment.
        """
        from repro.audit.provenance import provenance

        return {
            "experiment_id": self.experiment_id,
            "elapsed_s": self.elapsed_s,
            "options": {key: _jsonable(value)
                        for key, value in sorted(self.options.items())},
            "result_type": type(self.result).__name__,
            "result_summary": _result_summary(self.result),
            "stage_timings": self.stage_timings,
            "provenance": provenance(),
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _summary_scalar(value: Any) -> Any | None:
    """``value`` as a canonical-JSON-safe scalar, or ``None`` to skip."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(float(value)) else None
    return None


def _result_summary(result: Any, *, max_list_items: int = 32) -> dict[str, Any]:
    """Scalar fields (and short scalar lists) of a dataclass result.

    Trajectories, power cubes, and other arrays stay out — the summary
    is what a privacy-SLO record rule can reference by dotted path.
    """
    if not dataclasses.is_dataclass(result) or isinstance(result, type):
        return {}
    summary: dict[str, Any] = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        scalar = _summary_scalar(value)
        if scalar is not None:
            summary[field.name] = scalar
            continue
        if isinstance(value, (list, tuple)) and len(value) <= max_list_items:
            items = [_summary_scalar(item) for item in value]
            if items and all(item is not None for item in items):
                summary[field.name] = items
    return summary


def _timed_run(experiment_id: str, fast: bool, options: dict[str, Any],
               ) -> tuple[ExperimentRun, dict[str, Any]]:
    """Worker entry point (module-level so it pickles into a process pool).

    Returns the run and what it added to the process registry
    (:meth:`~repro.obs.MetricsRegistry.growth_since`), plain data that
    pickles back to the parent.
    """
    registry = process_metrics()
    before = registry.snapshot()
    started = time.perf_counter()
    result = run_experiment(experiment_id, fast=fast, **options)
    elapsed_s = time.perf_counter() - started
    growth = registry.growth_since(before)
    stage_timings = {name: {"count": sum(data["counts"]),
                            "wall_s": data["sum"]}
                     for name, data in sorted(growth["histograms"].items())
                     if name.startswith("stages.")}
    return ExperimentRun(experiment_id=experiment_id, result=result,
                         elapsed_s=elapsed_s, options=dict(options),
                         stage_timings=stage_timings), growth


def _start_worker(blas_budget: int | None) -> None:
    """Pool initializer: run this worker's BLAS on its share of threads."""
    if blas_budget is not None:
        set_blas_threads(blas_budget)


def _pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """``workers`` processes, each on ``1/workers`` of the parent's BLAS.

    Workers fork where the platform offers it, so they inherit the
    imported program instead of importing it again; without the budget,
    every worker would run as many BLAS threads as the parent and they
    would contend for the same CPUs.
    """
    parent_threads = blas_threads()
    budget = (None if parent_threads is None
              else max(1, parent_threads // workers))
    context = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods() else None)
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=context,
        initializer=_start_worker, initargs=(budget,))


def run_experiments(experiment_ids: Sequence[str], *, fast: bool = False,
                    workers: int | None = None,
                    record_dir: str | None = None,
                    **options: Any) -> list[ExperimentRun]:
    """Run several experiments, fanned out over processes.

    Args:
        experiment_ids: registry ids to run, all validated up front.
        fast: apply each experiment's quick-run presets (as in
            :func:`run_experiment`; explicit ``options`` still win).
        workers: worker processes; ``None`` means one per usable CPU.
            Never more workers than ids; one runs in-process, no pool.
        record_dir: when given, write ``<id>.json`` timing/result records
            into this directory (created if missing).
        **options: keyword overrides forwarded to every experiment.

    Returns:
        One :class:`ExperimentRun` per id, in input order. What pooled
        runs added to their process registries is merged into this
        process's, as if the runs had been in-process.
    """
    experiment_ids = list(experiment_ids)
    unknown = [eid for eid in experiment_ids if eid not in EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            f"known: {known}"
        )
    if workers is not None and workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    workers = min(usable_cpus() if workers is None else workers,
                  len(experiment_ids))

    if workers <= 1:
        runs = [_timed_run(eid, fast, options)[0] for eid in experiment_ids]
    else:
        with _pool(workers) as pool:
            futures = [pool.submit(_timed_run, eid, fast, options)
                       for eid in experiment_ids]
            results = [future.result() for future in futures]
        for _, growth in results:
            process_metrics().merge(growth)
        runs = [run for run, _ in results]

    if record_dir is not None:
        _write_records(record_dir, runs)
    return runs


def _write_records(record_dir: str, runs: Sequence[ExperimentRun]) -> None:
    """Per-experiment JSON records plus chained ledger entries.

    Each run record is written both as ``<id>.json`` (human-greppable)
    and appended as an ``experiment_run`` record to the directory's
    hash-chained ledger (:mod:`repro.audit.ledger`), which ``rfprotect
    audit sign``/``verify``/``report`` operate on. Appends re-anchor on
    the ledger's current tail, so repeated runs into one directory keep
    one continuous chain.
    """
    from repro.audit.ledger import LEDGER_NAME, Ledger

    os.makedirs(record_dir, exist_ok=True)
    ledger = Ledger(os.path.join(record_dir, LEDGER_NAME))
    for run in runs:
        record = run.record()
        path = os.path.join(record_dir, f"{run.experiment_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        ledger.append("experiment_run", record)
