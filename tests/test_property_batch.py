"""Property tests for the batched synthesis engine and the parallel runner.

Hypothesis generates adversarial component sets to check the algebraic
invariants the vectorized kernel must share with the physics: synthesis is
linear in amplitude, invariant under component reordering, and
deterministic. The parallel `run_experiments` fan-out is pinned to its
serial execution: worker count must never change results, nor what the
caller's stage histograms and synthesis counters record.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentSpec,
    run_experiments,
)
from repro.nn import overlap
from repro.radar import (
    SYNTH_STATS,
    PathComponent,
    RadarConfig,
    UniformLinearArray,
    synthesize_packed,
)
from repro.radar.stages import stage_metrics
from tests.receive_oracle import noise_cube, pack_frames

CONFIG = RadarConfig()
ARRAY = UniformLinearArray(CONFIG)

component_strategy = st.builds(
    PathComponent,
    distance=st.floats(0.0, 20.0),
    angle=st.floats(1e-3, np.pi - 1e-3),
    amplitude=st.floats(0.0, 1.0),
    beat_offset_hz=st.floats(-1.5e6, 1.5e6),
    phase_offset=st.floats(0.0, 2.0 * np.pi),
    extra_delay_s=st.floats(0.0, 5e-8),
)
components_strategy = st.lists(component_strategy, min_size=0, max_size=12)

COMMON_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def synthesize(per_frame: list[list[PathComponent]],
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Frames through ``synthesize_packed``, with noise when given ``rng``."""
    out = None if rng is None else noise_cube(CONFIG, rng, len(per_frame))
    return synthesize_packed(*pack_frames(per_frame), CONFIG, ARRAY, out=out)


def scaled(component: PathComponent, factor: float) -> PathComponent:
    return PathComponent(
        component.distance, component.angle, component.amplitude * factor,
        component.beat_offset_hz, component.phase_offset,
        component.extra_delay_s,
    )


class TestSynthesisProperties:
    @COMMON_SETTINGS
    @given(components=components_strategy,
           factor=st.floats(0.0, 4.0))
    def test_linear_in_amplitude(self, components, factor):
        base = synthesize([components])[0]
        scaled_frame = synthesize([[scaled(c, factor) for c in components]])[0]
        reference = factor * base
        np.testing.assert_allclose(scaled_frame, reference,
                                   atol=1e-9 * max(1.0, factor))

    @COMMON_SETTINGS
    @given(components=components_strategy, seed=st.integers(0, 2**31 - 1))
    def test_permutation_invariant(self, components, seed):
        permuted = list(components)
        np.random.default_rng(seed).shuffle(permuted)
        frame = synthesize([components])[0]
        frame_permuted = synthesize([permuted])[0]
        np.testing.assert_allclose(frame_permuted, frame, atol=1e-9)

    @COMMON_SETTINGS
    @given(components=components_strategy, seed=st.integers(0, 2**31 - 1))
    def test_deterministic_for_fixed_seed(self, components, seed):
        first = synthesize([components], np.random.default_rng(seed))
        second = synthesize([components], np.random.default_rng(seed))
        np.testing.assert_array_equal(first, second)

    @COMMON_SETTINGS
    @given(components=components_strategy)
    def test_superposition_of_sub_frames(self, components):
        """Splitting a component set in half and summing frames is exact."""
        half = len(components) // 2
        whole = synthesize([components])[0]
        parts = (synthesize([components[:half]])[0]
                 + synthesize([components[half:]])[0])
        np.testing.assert_allclose(parts, whole, atol=1e-9)

    @COMMON_SETTINGS
    @given(per_frame=st.lists(components_strategy, min_size=1, max_size=4))
    def test_sweep_matches_per_frame(self, per_frame):
        sweep = synthesize(per_frame)
        for frame, components in zip(sweep, per_frame):
            single = synthesize([components])[0]
            np.testing.assert_allclose(frame, single, atol=1e-9)


def _comparable(result) -> dict:
    """Flatten an experiment result's numeric leaves for equality checks."""
    leaves = {}
    for name, value in vars(result).items():
        if isinstance(value, (int, float, str, bool)):
            leaves[name] = value
        elif isinstance(value, np.ndarray):
            leaves[name] = value.tolist()
        elif (isinstance(value, list)
              and all(isinstance(v, (int, float)) for v in value)):
            leaves[name] = list(value)
    return leaves


class TestParallelRunnerReproducibility:
    @pytest.mark.parametrize("parallel_workers", [4])
    def test_worker_count_does_not_change_results(self, parallel_workers):
        ids = ["fig9", "ext-pulsed"]
        options = {"duration": 3.0}
        serial = run_experiments(ids, fast=True, workers=1, seed=7,
                                 **options)
        parallel = run_experiments(ids, fast=True, workers=parallel_workers,
                                   seed=7, **options)
        assert [r.experiment_id for r in serial] == ids
        assert [r.experiment_id for r in parallel] == ids
        for run_serial, run_parallel in zip(serial, parallel):
            assert run_serial.options == run_parallel.options
            assert (_comparable(run_serial.result)
                    == _comparable(run_parallel.result))

    def test_default_worker_count_matches_serial_with_a_shared_gan(self):
        """table1 trains the memoized tiny GAN. The default run goes first,
        so on a multi-CPU host a worker trains its own copy rather than
        inheriting the caller's, and the tables must still match."""
        ids = ["fig9", "table1"]
        pooled = run_experiments(ids, fast=True, seed=11)
        serial = run_experiments(ids, fast=True, workers=1, seed=11)
        for run_pooled, run_serial in zip(pooled, serial):
            assert run_pooled.options == run_serial.options
            assert (_comparable(run_pooled.result)
                    == _comparable(run_serial.result))
            assert (run_pooled.result.format_table()
                    == run_serial.result.format_table())

    def test_records_written(self, tmp_path):
        runs = run_experiments(["fig9"], fast=True, workers=1, seed=3,
                               duration=3.0, record_dir=str(tmp_path))
        record_file = tmp_path / "fig9.json"
        assert record_file.exists()
        import json

        record = json.loads(record_file.read_text())
        assert record["experiment_id"] == "fig9"
        assert record["elapsed_s"] == pytest.approx(runs[0].elapsed_s)
        assert record["options"]["duration"] == 3.0
        assert record["result_type"] == "Fig9Result"


def _probe() -> tuple[int, int | None]:
    """A fake experiment's result: the process it ran in and its BLAS threads."""
    return os.getpid(), overlap.blas_threads()


@pytest.fixture()
def probes(monkeypatch):
    """Two registered fake experiments running :func:`_probe`."""
    ids = ["probe-a", "probe-b"]
    for experiment_id in ids:
        monkeypatch.setitem(EXPERIMENTS, experiment_id, ExperimentSpec(
            experiment_id, "reports its pid and BLAS threads", _probe, {}))
    return ids


def _instrument_counts() -> dict[str, int]:
    """Histogram counts and counters of this process's registry."""
    snapshot = stage_metrics().snapshot()
    counts = {name: data["count"]
              for name, data in snapshot["histograms"].items()}
    counts.update(snapshot["counters"])
    counts["frames_synthesized"] = SYNTH_STATS.frames_synthesized
    return counts


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fake experiments reach workers only through fork")


class TestExperimentFanOut:
    def test_pooled_runs_add_their_counts_to_the_caller(self):
        growth = []
        for workers in (1, 2):
            before = _instrument_counts()
            run_experiments(["fig9", "ext-pulsed"], fast=True,
                            workers=workers, seed=5, duration=3.0)
            after = _instrument_counts()
            growth.append({name: value - before.get(name, 0)
                           for name, value in after.items()})
        assert growth[0] == growth[1]
        assert growth[0]["stages.detect.wall_s"] > 0
        assert growth[0]["frames_synthesized"] > 0
        assert growth[0]["tracker.births"] > 0

    @needs_fork
    def test_forked_workers_run_on_the_blas_budget(self, probes,
                                                   monkeypatch):
        threads = overlap.blas_threads()
        if threads is None:
            pytest.skip("the BLAS thread count cannot be read here")
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        overlap.set_blas_threads(4)
        try:
            parent = overlap.blas_threads()
            runs = run_experiments(probes)
            assert overlap.blas_threads() == parent
        finally:
            overlap.set_blas_threads(threads)
        assert all(run.result[0] != os.getpid() for run in runs)
        assert [run.result[1] for run in runs] == [max(1, parent // 2)] * 2

    def test_one_id_runs_in_process(self, probes):
        (run,) = run_experiments(probes[:1], workers=4)
        assert run.result[0] == os.getpid()

    def test_one_usable_cpu_runs_in_process(self, probes, monkeypatch):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
        runs = run_experiments(probes)
        assert [run.result[0] for run in runs] == [os.getpid()] * 2
