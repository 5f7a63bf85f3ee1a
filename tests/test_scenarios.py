"""Tests for the declarative scenario registry (``repro.scenarios``).

The registry is the single source of truth for scene construction, so
these tests pin its whole contract: spec validation, registry dispatch
errors, bitwise equivalence of the office/home shims with the registry
path, seed determinism of built content (including stability under
adding humans — the worker-independence guarantee), reflector-strategy
dispatch, inter-person occlusion, traffic-mix planning, and the
``--scenario`` plumbing through the experiments runner, CLI, and serve
demo.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import ScenarioError
from repro.experiments import runner
from repro.experiments.environments import (
    home_environment,
    office_environment,
)
from repro.experiments.runner import run_experiment
from repro.radar import OcclusionSpec, Scene
from repro.radar.antenna import UniformLinearArray
from repro.reflector import RfProtectTag
from repro.scenarios import (
    REFLECTOR_STRATEGIES,
    SCENARIOS,
    FloorplanSpec,
    HumanSpec,
    RadarPlacement,
    ReflectorSpec,
    ScenarioSpec,
    TrafficMix,
    build,
    get_scenario,
    register_scenario,
    scenario_names,
    traffic_weights,
)
from repro.serve.app import build_demo_scene
from repro.trajectories import ActivityProgram
from tests.receive_oracle import emit_frame

OFFICE_LIKE = FloorplanSpec(size=(8.0, 6.0))


def make_spec(name: str = "test-spec", **overrides) -> ScenarioSpec:
    defaults = dict(
        name=name,
        description="a throwaway spec",
        floorplan=OFFICE_LIKE,
        multipath=get_scenario("office").multipath,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestRegistry:
    def test_office_and_home_are_registered(self):
        names = scenario_names()
        assert "office" in names and "home" in names

    def test_at_least_six_additional_scenarios(self):
        extra = set(scenario_names()) - {"office", "home"}
        assert len(extra) >= 6, sorted(extra)

    def test_names_are_sorted_and_match_mapping(self):
        assert list(scenario_names()) == sorted(SCENARIOS)

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(ScenarioError, match="office"):
            get_scenario("no-such-place")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            register_scenario(make_spec("office"))

    def test_every_scenario_description_nonempty(self):
        for name in scenario_names():
            assert get_scenario(name).description

    def test_traffic_weights_are_positive(self):
        weights = traffic_weights()
        assert weights
        assert all(weight > 0 for weight in weights.values())


class TestSpecValidation:
    def test_bad_wall_rejected(self):
        with pytest.raises(ScenarioError, match="wall"):
            RadarPlacement(wall="ceiling")

    def test_bad_fraction_rejected(self):
        with pytest.raises(ScenarioError, match="fraction"):
            RadarPlacement(fraction=1.5)

    def test_clutter_outside_footprint_rejected(self):
        with pytest.raises(ScenarioError, match="outside"):
            FloorplanSpec(size=(4.0, 4.0), clutter=((5.0, 1.0, 1.0),))

    def test_margin_swallowing_room_rejected(self):
        with pytest.raises(ScenarioError, match="margin"):
            FloorplanSpec(size=(1.0, 1.0), margin=0.5)

    def test_unknown_reflector_kind_rejected(self):
        with pytest.raises(ScenarioError, match="reflector kind"):
            ReflectorSpec(kind="mirror-ball")

    def test_nonpositive_rcs_rejected(self):
        with pytest.raises(ScenarioError, match="rcs"):
            HumanSpec(program=ActivityProgram.of("walk"), rcs=0.0)

    def test_scenario_needs_a_radar(self):
        with pytest.raises(ScenarioError, match="radar"):
            make_spec(radars=())


class TestEnvironmentShim:
    @pytest.mark.parametrize("name,shim", [
        ("office", office_environment), ("home", home_environment),
    ])
    def test_shim_resolves_through_registry(self, name, shim):
        via_shim = shim()
        via_registry = build(name).environment
        assert via_shim.name == via_registry.name == name
        assert via_shim.radar_config == via_registry.radar_config
        assert ((via_shim.room.x_min, via_shim.room.y_min,
                 via_shim.room.x_max, via_shim.room.y_max)
                == (via_registry.room.x_min, via_registry.room.y_min,
                    via_registry.room.x_max, via_registry.room.y_max))
        assert via_shim.multipath == via_registry.multipath
        assert via_shim.static_clutter == via_registry.static_clutter
        np.testing.assert_array_equal(via_shim.panel.center,
                                      via_registry.panel.center)


class TestBuildDeterminism:
    def test_same_seed_builds_identical_trajectories(self):
        first = build("office-crowd", seed=11).human_trajectories()
        second = build("office-crowd", seed=11).human_trajectories()
        assert len(first) == len(second) == 3
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = build("office-crowd", seed=1).human_trajectories()[0]
        b = build("office-crowd", seed=2).human_trajectories()[0]
        assert not np.array_equal(a.points, b.points)

    def test_default_seed_comes_from_spec(self):
        built = build("office")
        assert built.seed == get_scenario("office").default_seed

    def test_adding_humans_keeps_existing_streams(self):
        """Per-human streams spawn by index: human *i* is unaffected by
        how many humans follow — the worker-independence guarantee."""
        base = make_spec(humans=(
            HumanSpec(program=ActivityProgram.of("walk")),
            HumanSpec(program=ActivityProgram.of("sit")),
        ))
        extended = dataclasses.replace(base, humans=base.humans + (
            HumanSpec(program=ActivityProgram.of("stride")),
        ))
        short = build(base, seed=5).human_trajectories()
        long = build(extended, seed=5).human_trajectories()
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a.points, b.points)

    def test_trajectories_stay_in_walkable_area(self):
        built = build("warehouse-sweep", seed=3)
        room = built.environment.room
        margin = built.spec.floorplan.margin
        for trajectory in built.human_trajectories():
            assert room.contains_all(trajectory.points,
                                     margin=margin - 1e-9)


class TestMultiRadar:
    def test_dual_radar_scenario_builds_two_radars(self):
        built = build("office-dual-radar")
        radars = built.make_radars()
        assert len(radars) == 2
        assert radars[0].config == built.environment.radar_config
        # Secondary radar shares the primary's chirp and noise floor.
        assert radars[1].config.chirp == radars[0].config.chirp
        assert radars[1].config.noise_std == radars[0].config.noise_std
        assert not np.allclose(radars[1].config.position,
                               radars[0].config.position)


class TestReflectorStrategies:
    def test_all_declared_kinds_are_registered(self):
        from repro.scenarios.spec import REFLECTOR_KINDS

        assert sorted(REFLECTOR_STRATEGIES) == sorted(REFLECTOR_KINDS)

    @pytest.mark.parametrize("kind", ["static-ghost", "walking-ghost",
                                      "breathing-ghost"])
    def test_ghost_strategies_deploy_a_tag(self, kind):
        spec = make_spec(reflector=ReflectorSpec(kind=kind),
                         duration_s=2.0, num_points=10)
        scene = build(spec, seed=0).build_scene()
        tags = [e for e in scene.entities if isinstance(e, RfProtectTag)]
        assert len(tags) == 1

    def test_none_strategy_deploys_nothing(self):
        scene = build(make_spec(), seed=0).build_scene()
        assert not any(isinstance(e, RfProtectTag) for e in scene.entities)

    def test_duplicate_strategy_registration_rejected(self):
        from repro.scenarios import register_reflector_strategy

        with pytest.raises(ScenarioError, match="duplicate"):
            register_reflector_strategy("none")(lambda *args: None)


def _direct_amplitudes(scene: Scene, array: UniformLinearArray) -> list[float]:
    """Amplitudes of the humans' direct paths at t=0, in scene order.

    A human's direct path carries no phase offset; its multipath bounces
    carry a uniform random one.
    """
    components = emit_frame(scene.entities, 0.0, array, scene.channel,
                            np.random.default_rng(0), scene.occlusion)
    return [c.amplitude for c in components if c.phase_offset == 0.0]


class TestOcclusion:
    def _blocked_scene(self, occlusion: OcclusionSpec | None) -> Scene:
        spec = make_spec(
            humans=(
                # Far subject dead ahead of the radar, with the second
                # human standing exactly on the line of sight.
                HumanSpec(program=ActivityProgram.of("sit"),
                          start=(4.0, 5.0)),
                HumanSpec(program=ActivityProgram.of("sit"),
                          start=(4.0, 2.0)),
            ),
            occlusion=occlusion,
        )
        return build(spec, seed=0).build_scene(include_clutter=False)

    def test_blocked_human_is_attenuated(self):
        config = build(make_spec()).environment.radar_config
        array = UniformLinearArray(config)
        spec = OcclusionSpec(attenuation_db=6.0)
        clear = self._blocked_scene(None)
        shadowed = self._blocked_scene(spec)
        amp_clear = _direct_amplitudes(clear, array)[0]
        amp_shadowed = _direct_amplitudes(shadowed, array)[0]
        np.testing.assert_allclose(
            amp_shadowed, amp_clear * spec.attenuation_linear)

    def test_unblocked_human_is_untouched(self):
        config = build(make_spec()).environment.radar_config
        array = UniformLinearArray(config)
        clear = self._blocked_scene(None)
        shadowed = self._blocked_scene(OcclusionSpec())
        amp_clear = _direct_amplitudes(clear, array)[1]
        amp_shadowed = _direct_amplitudes(shadowed, array)[1]
        np.testing.assert_allclose(amp_shadowed, amp_clear)

    def test_occlusion_spec_validation(self):
        from repro.errors import SceneError

        with pytest.raises(SceneError):
            OcclusionSpec(body_radius=0.0)
        with pytest.raises(SceneError):
            OcclusionSpec(attenuation_db=-1.0)


class TestTrafficMix:
    def test_default_mix_covers_weighted_registry(self):
        mix = TrafficMix()
        assert mix.scenarios == tuple(sorted(traffic_weights()))

    def test_plan_is_deterministic(self):
        mix = TrafficMix()
        first = mix.plan(16, base_seed=42)
        second = mix.plan(16, base_seed=42)
        assert first == second

    def test_plan_prefix_stable_in_request_count(self):
        mix = TrafficMix()
        assert mix.plan(16, base_seed=7)[:8] == mix.plan(8, base_seed=7)

    def test_unknown_scenario_in_weights_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            TrafficMix({"nowhere": 1.0})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ScenarioError, match="positive"):
            TrafficMix({"office": 0.0})

    def test_weighting_shifts_the_draw(self):
        plan = TrafficMix({"office": 1000.0, "home": 1e-9}).plan(
            32, base_seed=0)
        drawn = {planned.scenario for planned in plan}
        assert drawn == {"office"}


class TestRunnerScenarioOption:
    def _spy_spec(self, run) -> runner.ExperimentSpec:
        return runner.ExperimentSpec("spy", "spy experiment", run, {})

    def test_scenario_resolves_to_environment(self, monkeypatch):
        seen = {}

        def spy_run(*, environment=None, seed=0):
            seen["environment"] = environment
            return "done"

        monkeypatch.setitem(runner.EXPERIMENTS, "spy",
                            self._spy_spec(spy_run))
        assert run_experiment("spy", scenario="home") == "done"
        assert seen["environment"].name == "home"

    def test_explicit_environment_wins_over_scenario(self, monkeypatch):
        seen = {}

        def spy_run(*, environment=None):
            seen["environment"] = environment
            return None

        monkeypatch.setitem(runner.EXPERIMENTS, "spy",
                            self._spy_spec(spy_run))
        office = build("office").environment
        run_experiment("spy", scenario="home", environment=office)
        assert seen["environment"] is office

    def test_scenario_ignored_without_environment_param(self, monkeypatch):
        def spy_run(*, seed=0):
            return "ran"

        monkeypatch.setitem(runner.EXPERIMENTS, "spy",
                            self._spy_spec(spy_run))
        assert run_experiment("spy", scenario="home") == "ran"

    def test_unknown_scenario_raises_even_when_ignored(self, monkeypatch):
        def spy_run(*, seed=0):
            return "ran"

        monkeypatch.setitem(runner.EXPERIMENTS, "spy",
                            self._spy_spec(spy_run))
        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_experiment("spy", scenario="atlantis")


class TestCliSurface:
    def test_scenarios_listing(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_rejects_unknown_scenario(self, capsys):
        code = cli_main(["run", "fig9", "--fast", "--scenario", "atlantis"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestServeDemoScenes:
    def test_environment_only_scenario_gets_demo_ghost(self):
        scene, config = build_demo_scene(scenario="office")
        assert any(isinstance(e, RfProtectTag) for e in scene.entities)
        assert config.position == build(
            "office").environment.radar_config.position

    def test_content_bearing_scenario_uses_builder(self):
        scene, _config = build_demo_scene(scenario="office-crowd")
        assert len(scene.humans()) == 3
        assert scene.occlusion is not None

    def test_demo_scene_radar_config_uses_fast_chirp(self):
        from repro.serve.app import DEMO_CHIRP_DURATION_S

        _scene, config = build_demo_scene(scenario="home-breathing")
        assert config.chirp.duration == DEMO_CHIRP_DURATION_S
