"""Tests for repro.experiments: environments, per-figure runs (fast), CLI.

These are the reproduction's acceptance tests: each figure's *shape-level*
claim must hold even at the fast/tiny experiment scale.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExperimentError, TrackingError
from repro.cli import main as cli_main
from repro.experiments import (
    EXPERIMENTS,
    home_environment,
    office_environment,
    run_experiment,
)
from repro.experiments import fig7, fig9, table1
from repro.experiments.artifacts import trained_gan
from repro.experiments.fig9 import rectangle_path, s_curve_path
from repro.radar import SensingResult
from repro.radar.stages import stage_metrics
from repro.types import Trajectory

SRC = Path(__file__).resolve().parents[1] / "src"


class TestEnvironments:
    def test_paper_dimensions(self):
        office = office_environment()
        home = home_environment()
        assert office.room.width == pytest.approx(10.0)
        assert office.room.depth == pytest.approx(6.6)
        assert home.room.width == pytest.approx(15.24)
        assert home.room.depth == pytest.approx(7.62)

    def test_radar_panel_separation_is_paper_value(self):
        for environment in (office_environment(), home_environment()):
            separation = np.linalg.norm(
                environment.panel.center - environment.radar_position
            )
            assert separation == pytest.approx(1.2, abs=0.01)

    def test_office_has_heavier_multipath(self):
        office = office_environment()
        home = home_environment()
        assert (office.multipath.relative_amplitude
                > home.multipath.relative_amplitude)
        assert office.multipath.mean_paths > home.multipath.mean_paths

    def test_clutter_inside_rooms(self):
        for environment in (office_environment(), home_environment()):
            for x, y, _rcs in environment.static_clutter:
                assert environment.room.contains((x, y))

    def test_make_scene_contains_clutter(self):
        environment = office_environment()
        scene = environment.make_scene()
        assert len(scene.entities) == len(environment.static_clutter)
        bare = environment.make_scene(include_clutter=False)
        assert bare.entities == []

    def test_controller_nominal_assumption_close_to_truth(self):
        # The tag assumes the radar sits behind the panel; in these
        # deployments that assumption is nearly exact, which is why the
        # measured trajectories match intent so closely.
        environment = office_environment()
        controller = environment.make_controller()
        assert controller.radar_position == pytest.approx(
            environment.radar_position, abs=0.05
        )


class TestFig7:
    def test_shape_claims(self):
        result = fig7.run(q_points=11)
        # q=0 and q=1 leak H(X); the interior dips.
        for row_index in range(len(result.phantom_counts)):
            row = result.mutual_information_bits[row_index]
            assert row[0] == pytest.approx(result.baseline_entropy_bits,
                                           abs=1e-6)
            assert row[-1] == pytest.approx(result.baseline_entropy_bits,
                                            abs=1e-6)
            assert 0.3 <= result.minimum_q(row_index) <= 0.7
        # Leakage at the minimum decreases with M.
        minima = result.mutual_information_bits.min(axis=1)
        assert all(b < a for a, b in zip(minima, minima[1:]))

    def test_format_table_mentions_parameters(self):
        text = fig7.run(q_points=5).format_table()
        assert "N=4" in text
        assert "M=8" in text


class TestFig9:
    def test_paths_are_in_room(self):
        environment = office_environment()
        center = environment.room.center
        for path in (rectangle_path(center, 3.0, 2.0, 40, 0.2),
                     s_curve_path(center, 4.0, 2.0, 40, 0.2)):
            assert environment.room.contains_all(path.points)

    def test_localization_close_to_resolution(self):
        result = fig9.run(duration=6.0)
        assert len(result.path_names) == 2
        for median in result.median_errors_m:
            # Within ~2 range bins, as the paper's Fig. 9 shows.
            assert median < 2.5 * result.range_resolution_m

    def test_detect_runs_once_per_path(self):
        def detect_runs() -> int:
            histograms = stage_metrics().snapshot()["histograms"]
            return histograms.get("stages.detect.wall_s", {"count": 0})["count"]

        before = detect_runs()
        result = fig9.run(duration=6.0)
        assert detect_runs() - before == len(result.path_names)

    def test_untracked_path_raises_tracking_error(self, monkeypatch):
        monkeypatch.setattr(SensingResult, "tracks",
                            lambda self, tracker_config=None: [])
        with pytest.raises(TrackingError, match="no target was tracked"):
            fig9.run(duration=4.0)


class TestFig10:
    def test_ghost_power_comparable_to_human(self, tiny_gan):
        result = run_experiment("fig10", fast=True)
        # Fig. 10's claim: phantom reflection power is human-like — here
        # within 10 dB (exact parity depends on where the human stands).
        assert abs(result.peak_power_ratio_db) < 10.0

    def test_replay_tracks_intended_shape(self, tiny_gan):
        result = run_experiment("fig10", fast=True)
        assert result.replay_median_error_m < 0.5
        assert len(result.spoofed_trajectory) > 10


class TestFig11:
    def test_sweep_produces_errors_within_sanity(self, tiny_gan):
        result = run_experiment("fig11", fast=True)
        assert set(result.sweeps) == {"home", "office"}
        for sweep in result.sweeps.values():
            medians = sweep.medians()
            assert medians["location_m"] < 0.6
            assert medians["angle_deg"] < 15.0
            values, levels = sweep.cdf("location")
            assert np.all(np.diff(values) >= 0)
            assert levels[-1] == pytest.approx(1.0)

    def test_cdf_unknown_family_rejected(self, tiny_gan):
        result = run_experiment("fig11", fast=True)
        with pytest.raises(ExperimentError):
            result.sweeps["home"].cdf("nonsense")


class TestFig12:
    def test_gan_beats_all_baselines(self, tiny_gan):
        result = run_experiment("fig12", fast=True)
        assert result.ordering_holds()
        assert result.normalized_fid["Random"] > result.normalized_fid["ULM"]

    def test_classifier_nails_random_motion(self, tiny_gan):
        result = run_experiment("fig12", fast=True)
        assert result.classifier_accuracy["Random"] > 0.9


class TestFig13:
    def test_ghost_filtered_human_recovered(self, tiny_gan):
        result = run_experiment("fig13", fast=True)
        assert result.eavesdropper_count == 2
        assert result.legitimate_count == 1
        assert result.ghost_matched
        assert result.human_recovery_error_m < 0.3


class TestFig14:
    def test_both_periods_recovered(self):
        result = run_experiment("fig14", fast=True)
        assert result.human_estimated_period_s == pytest.approx(
            result.human_true_period_s, rel=0.1
        )
        assert result.ghost_estimated_period_s == pytest.approx(
            result.ghost_true_period_s, rel=0.1
        )


class TestTable1:
    def test_no_significant_association(self, tiny_gan):
        result = run_experiment("table1", fast=True)
        assert result.table.sum() == 8 * 2 * 5  # raters x classes x per_class
        assert not result.test.significant()

    def test_rater_model_accepts_most_real(self, tiny_gan, small_dataset):
        model = table1.RaterModel(small_dataset,
                                  rng=np.random.default_rng(0),
                                  judgement_noise=0.0)
        accepted = np.mean([model.perceive_real(t) for t in small_dataset])
        assert 0.4 <= accepted <= 0.8

    def test_rater_model_rejects_absurd_motion(self, small_dataset):
        model = table1.RaterModel(small_dataset,
                                  rng=np.random.default_rng(0),
                                  judgement_noise=0.0)
        teleporting = Trajectory(
            np.random.default_rng(1).uniform(0, 10, (50, 2)), dt=0.2
        )
        assert not model.perceive_real(teleporting)


class TestRunnerAndCli:
    def test_registry_covers_all_paper_results(self):
        paper_results = {"fig7", "fig9", "fig10", "fig11", "fig12", "fig13",
                         "fig14", "table1"}
        extensions = {"ext-multiradar", "ext-pulsed", "ext-floorplan"}
        assert set(EXPERIMENTS) == paper_results | extensions

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_cli_list(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig11" in output
        assert "table1" in output

    def test_cli_run_fig7(self, capsys):
        assert cli_main(["run", "fig7", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 7" in output

    def test_cli_unknown_experiment_fails(self, capsys):
        assert cli_main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


def _cli_env(unbuffered: bool) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestCliClosedPipe:
    """``rfprotect ... | head -1`` ends quietly, without a traceback."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_reader_exits_one_without_traceback(self, unbuffered):
        # The reader is gone before the first write, so the failing write
        # is deterministic: a print when unbuffered, the final flush when
        # block-buffered.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_end, stderr=subprocess.PIPE,
                env=_cli_env(unbuffered), timeout=120)
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert completed.stderr == b""

    def test_reader_closing_after_first_line(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "fig7", "--fast"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_cli_env(unbuffered=True))
        assert process.stdout is not None and process.stderr is not None
        assert process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=120) in (0, 1)
        assert b"Traceback" not in stderr and b"BrokenPipe" not in stderr
