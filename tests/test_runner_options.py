"""Regression tests for experiment-runner option handling.

Pins two previously untested behaviors of `repro.experiments.runner`:
explicit keyword options must override the ``fast_options`` presets, and
unknown ids must raise an error that lists every known id.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentSpec,
    run_experiment,
    run_experiments,
)


@pytest.fixture()
def spy_experiment(monkeypatch):
    """A registered fake experiment that records the kwargs it receives."""
    calls: list[dict] = []

    def spy_run(**kwargs):
        calls.append(kwargs)
        return kwargs

    spec = ExperimentSpec(
        "spy", "records received kwargs", spy_run,
        fast_options={"duration": 1.0, "quality": "tiny"},
    )
    monkeypatch.setitem(EXPERIMENTS, "spy", spec)
    return calls


class TestOptionPrecedence:
    def test_fast_presets_applied(self, spy_experiment):
        run_experiment("spy", fast=True)
        assert spy_experiment[-1] == {"duration": 1.0, "quality": "tiny"}

    def test_explicit_kwargs_override_fast_presets(self, spy_experiment):
        run_experiment("spy", fast=True, duration=9.0)
        assert spy_experiment[-1] == {"duration": 9.0, "quality": "tiny"}

    def test_fast_false_ignores_presets(self, spy_experiment):
        run_experiment("spy", fast=False, duration=2.5)
        assert spy_experiment[-1] == {"duration": 2.5}

    def test_run_experiments_inherits_precedence(self, spy_experiment):
        run_experiments(["spy"], fast=True, workers=1, duration=4.0)
        assert spy_experiment[-1] == {"duration": 4.0, "quality": "tiny"}

    def test_broadcast_seed_dropped_for_seedless_experiments(self, monkeypatch):
        """``run all --seed N`` must not crash deterministic experiments."""
        calls: list[dict] = []

        def seedless_run(*, duration: float = 1.0) -> dict:
            calls.append({"duration": duration})
            return calls[-1]

        spec = ExperimentSpec("seedless", "takes no seed", seedless_run,
                              fast_options={})
        monkeypatch.setitem(EXPERIMENTS, "seedless", spec)
        run_experiment("seedless", fast=True, seed=3, duration=2.0)
        assert calls[-1] == {"duration": 2.0}
        run_experiments(["seedless"], fast=True, workers=1, seed=11)
        assert calls[-1] == {"duration": 1.0}


class TestUnknownIdErrors:
    def test_unknown_id_lists_all_known_ids(self):
        with pytest.raises(ExperimentError) as excinfo:
            run_experiment("fig99")
        message = str(excinfo.value)
        assert "fig99" in message
        for known_id in EXPERIMENTS:
            assert known_id in message

    def test_run_experiments_validates_before_running(self, spy_experiment):
        with pytest.raises(ExperimentError) as excinfo:
            run_experiments(["spy", "not-a-real-id"], workers=1)
        message = str(excinfo.value)
        assert "not-a-real-id" in message
        for known_id in EXPERIMENTS:
            assert known_id in message
        # Validation happens up front: nothing ran.
        assert spy_experiment == []

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ExperimentError, match="workers"):
            run_experiments(["fig9"], workers=0)
