"""Tests for the extension experiments and multi-radar coordination."""

import numpy as np
import pytest

from repro.errors import TrackingError
from repro.eavesdropper import classify_by_consistency, cross_view_distance
from repro.experiments import run_experiment
from repro.experiments.runner import run_experiments
from repro.experiments.ext_floorplan import apartment_floor_plan
from repro.reflector import ReflectorController, ReflectorPanel, RfProtectTag
from repro.signal import ChirpConfig
from repro.types import Trajectory
from tests.receive_oracle import emit_frame


class TestCrossViewDistance:
    def test_identical_views_zero(self, sample_trajectory):
        assert cross_view_distance(sample_trajectory,
                                   sample_trajectory) == pytest.approx(0.0)

    def test_offset_views_measured(self, sample_trajectory):
        shifted = sample_trajectory.translated([2.0, 0.0])
        assert cross_view_distance(sample_trajectory,
                                   shifted) == pytest.approx(2.0)

    def test_rigid_offset_not_forgiven(self, sample_trajectory):
        # Consistency is absolute by design: a rotated view is inconsistent.
        rotated = sample_trajectory.rotated(0.5, about=(5.0, 5.0))
        assert cross_view_distance(sample_trajectory, rotated) > 0.1

    def test_rejects_degenerate_tracks(self, sample_trajectory):
        short = Trajectory([[0.0, 0.0], [0.0, 0.0]], dt=1.0)
        # Two points is the minimum; one-point trajectories can't exist, so
        # exercise the resampling path instead.
        assert cross_view_distance(short, sample_trajectory) > 0


class TestClassifyByConsistency:
    def test_consistent_pair_judged_real(self, sample_trajectory, rng):
        noisy = sample_trajectory.replace(
            points=sample_trajectory.points + rng.normal(0, 0.05, (50, 2))
        )
        report = classify_by_consistency([sample_trajectory], [noisy])
        assert report.num_judged_real == 1
        assert report.num_judged_fake == 0

    def test_inconsistent_tracks_judged_fake(self, sample_trajectory):
        elsewhere = sample_trajectory.translated([5.0, 3.0])
        report = classify_by_consistency([sample_trajectory], [elsewhere])
        assert report.num_judged_real == 0
        assert report.num_judged_fake == 2

    def test_one_to_one_matching(self, sample_trajectory, rng):
        twin = sample_trajectory.translated([0.05, 0.0])
        report = classify_by_consistency(
            [sample_trajectory, twin], [sample_trajectory]
        )
        assert report.num_judged_real == 1
        assert len(report.inconsistent_a) == 1

    def test_rejects_bad_threshold(self, sample_trajectory):
        with pytest.raises(TrackingError):
            classify_by_consistency([sample_trajectory],
                                    [sample_trajectory], threshold=0.0)


class TestExtMultiRadarExperiment:
    def test_ghost_exposed(self, tiny_gan):
        result = run_experiment("ext-multiradar", fast=True)
        assert result.radar_a_targets == 2
        assert result.ghost_exposed()
        assert (result.ghost_cross_view_distance_m
                > result.human_cross_view_distance_m)
        assert result.report.num_judged_real >= 1

    @pytest.mark.parametrize("option", ["seed"])
    @pytest.mark.parametrize("seed", [5, 19])
    def test_ghost_tracing_the_walker_is_redrawn(self, seed, option):
        # With these seeds (as `--seed`) the first GAN ghost walks on top
        # of the human for the whole window, so radar A saw a single mover.
        (run,) = run_experiments(["ext-multiradar"], fast=True,
                                 **{option: seed})
        assert run.result.radar_a_targets == 2
        assert run.result.radar_b_targets >= 1
        assert run.result.ghost_exposed()


class TestExtPulsedExperiment:
    def test_three_claims(self):
        result = run_experiment("ext-pulsed", fast=True)
        assert result.human_tracking_error_m < 0.15
        assert result.fmcw_tag_tracks == 0
        assert result.delay_tag_tracks >= 1
        assert result.delay_tag_replay_error_m < 2.5 * result.line_spacing_m


class TestExtFloorplanExperiment:
    def test_constraint_eliminates_crossings(self, tiny_gan):
        result = run_experiment("ext-floorplan", fast=True)
        assert result.constrained_crossings_total == 0
        # With random placement in a two-room plan, some unconstrained
        # ghosts must cross (the limitation the paper acknowledges).
        assert result.unconstrained_crossings_total >= 1

    def test_apartment_plan_is_sane(self):
        plan = apartment_floor_plan()
        assert len(plan.walls) == 3
        # The doorway is passable.
        assert not plan.step_crosses_wall(np.array([4.5, 3.2]),
                                          np.array([5.5, 3.2]))


class TestRcsMimicry:
    def test_amplitude_scale_commands(self, rng):
        panel = ReflectorPanel((5.0, 1.3), wall_angle=0.0,
                               normal_angle=np.pi / 2)
        controller = ReflectorController(panel, ChirpConfig(),
                                         rcs_variation=0.25)
        ghost = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 30), dt=0.4)
        schedule = controller.plan_trajectory(ghost, rng=rng)
        scales = np.array([c.amplitude_scale for c in schedule.commands])
        assert scales.std() > 0.05   # mimicry active
        assert np.all(scales > 0)

    def test_no_variation_by_default(self):
        panel = ReflectorPanel((5.0, 1.3), wall_angle=0.0,
                               normal_angle=np.pi / 2)
        controller = ReflectorController(panel, ChirpConfig())
        ghost = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 30), dt=0.4)
        schedule = controller.plan_trajectory(ghost)
        scales = [c.amplitude_scale for c in schedule.commands]
        assert scales == pytest.approx(np.ones(len(scales)))

    def test_tag_applies_scale(self, rng):
        from repro.radar import ChannelModel, RadarConfig, UniformLinearArray
        panel = ReflectorPanel((5.0, 1.3), wall_angle=0.0,
                               normal_angle=np.pi / 2)
        array = UniformLinearArray(RadarConfig(position=(5.0, 0.1),
                                               facing_angle=np.pi / 2))
        controller = ReflectorController(panel, ChirpConfig(),
                                         rcs_variation=0.3)
        ghost = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 30), dt=0.4)
        tag = RfProtectTag(panel)
        tag.deploy(controller.plan_trajectory(ghost, rng=rng))
        channel = ChannelModel()
        amp_early = max(c.amplitude for c in
                        emit_frame([tag], 0.05, array, channel, rng))
        amp_late = max(c.amplitude for c in
                       emit_frame([tag], 5.0, array, channel, rng))
        assert amp_early != pytest.approx(amp_late, rel=1e-6)
