"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the system and quantifies the
design trade-off the paper argues for (or acknowledges as a limitation).
"""

import numpy as np
import pytest

from repro.experiments.artifacts import trained_gan
from repro.experiments.environments import office_environment
from repro.metrics.alignment import spoofing_errors
from repro.privacy import OccupancyModel
from repro.reflector import ReflectorController, ReflectorPanel, RfProtectTag
from repro.reflector.hardware import AntennaSwitchModel, SwitchModel
from repro.types import Trajectory
from tests.receive_oracle import emit_frame


def _spoof_once(environment, panel, rng, *, switch=None, duration=8.0):
    """Deploy one straight-line ghost on ``panel`` and sense it."""
    controller = ReflectorController(panel, environment.radar_config.chirp)
    shape = Trajectory(np.linspace([-1.2, -0.8], [1.2, 0.8], 40),
                       dt=duration / 39.0)
    placed = controller.place_trajectory(shape)
    schedule = controller.plan_trajectory(placed)
    antenna_switch = AntennaSwitchModel(num_ports=max(8, panel.num_antennas))
    tag = RfProtectTag(panel, switch=switch, antenna_switch=antenna_switch)
    tag.deploy(schedule)
    scene = environment.make_scene()
    scene.add(tag)
    result = environment.make_radar().sense(scene, duration, rng=rng)
    return schedule, result


@pytest.mark.benchmark(group="ablations")
def test_ablation_square_wave_vs_ssb(benchmark):
    """Sec. 5.1: square-wave switching creates harmonic ghosts; ideal
    single-sideband modulation would not. Quantify the harmonic's power."""
    environment = office_environment()

    def run():
        rows = {}
        for name, switch in (("square", SwitchModel()),
                             ("ssb", SwitchModel(include_negative=False,
                                                 max_harmonic=1))):
            rng = np.random.default_rng(5)
            tag_components = []
            controller = ReflectorController(environment.panel,
                                             environment.radar_config.chirp)
            shape = Trajectory(np.linspace([-1.0, 0.0], [1.0, 0.5], 30),
                               dt=0.25)
            placed = controller.place_trajectory(shape)
            schedule = controller.plan_trajectory(placed)
            tag = RfProtectTag(environment.panel, switch=switch)
            tag.deploy(schedule)
            array = environment.make_radar().array
            channel = environment.make_channel()
            tag_components = emit_frame([tag], 2.0, array, channel, rng)
            offsets = sorted({c.beat_offset_hz for c in tag_components})
            rows[name] = {
                "num_lines": len(offsets),
                "has_third_harmonic": any(
                    o > 0 and any(abs(o - 3 * p) < 1.0
                                  for p in offsets if 0 < p < o)
                    for o in offsets
                ),
            }
        return rows

    rows = benchmark(run)
    print()
    print("ablation: switching waveform")
    for name, row in rows.items():
        print(f"  {name:<8} spectral lines: {row['num_lines']:>2}  "
              f"3rd harmonic: {row['has_third_harmonic']}")
    assert rows["square"]["has_third_harmonic"]
    assert not rows["ssb"]["has_third_harmonic"]
    assert rows["ssb"]["num_lines"] < rows["square"]["num_lines"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_panel_antenna_count(benchmark):
    """Sec. 5.2: K_R controls the discrete-angle resolution. Fewer antennas
    -> coarser angle quantization -> larger angle spoofing error."""
    environment = office_environment()

    def run():
        medians = {}
        for num_antennas in (2, 4, 6, 10):
            panel = ReflectorPanel(environment.panel.center,
                                   num_antennas=num_antennas,
                                   spacing=1.0 / max(num_antennas - 1, 1),
                                   wall_angle=0.0, normal_angle=np.pi / 2)
            rng = np.random.default_rng(11)
            schedule, result = _spoof_once(environment, panel, rng)
            errors = spoofing_errors(result.trajectories()[0],
                                     schedule.intended_trajectory(),
                                     environment.radar_position)
            medians[num_antennas] = errors.medians()["angle_deg"]
        return medians

    medians = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("ablation: panel antenna count (fixed 1.0 m aperture)")
    for count, angle_error in medians.items():
        print(f"  K_R={count:<3d} median angle error: {angle_error:.2f} deg")
    # Coarse panels are clearly worse than fine ones.
    assert medians[2] > medians[6]
    assert medians[10] <= medians[2]


@pytest.mark.benchmark(group="ablations")
def test_ablation_reflector_standoff(benchmark):
    """Sec. 5.2: deployment distance trades angular coverage against
    resolution — farther panels subtend fewer, finer angles."""
    environment = office_environment()

    def run():
        rows = {}
        for standoff in (0.6, 1.2, 2.4):
            panel = ReflectorPanel(
                np.asarray(environment.radar_position)
                + np.array([0.0, standoff]),
                wall_angle=0.0, normal_angle=np.pi / 2,
            )
            low, high = panel.angular_coverage(environment.radar_position)
            coverage = np.degrees(high - low)
            angles = panel.antenna_angles(environment.radar_position)
            step = np.degrees(np.abs(np.diff(angles)).mean())
            rows[standoff] = {"coverage_deg": coverage, "step_deg": step}
        return rows

    rows = benchmark(run)
    print()
    print("ablation: reflector standoff distance")
    for standoff, row in rows.items():
        print(f"  {standoff:.1f} m  coverage {row['coverage_deg']:6.1f} deg  "
              f"angle step {row['step_deg']:.1f} deg")
    coverages = [rows[s]["coverage_deg"] for s in (0.6, 1.2, 2.4)]
    steps = [rows[s]["step_deg"] for s in (0.6, 1.2, 2.4)]
    assert coverages[0] > coverages[1] > coverages[2]  # nearer = wider
    assert steps[0] > steps[2]                          # farther = finer


@pytest.mark.benchmark(group="ablations")
def test_ablation_gan_conditioning(benchmark, bench_scale):
    """Sec. 6: the range-class condition steers generated motion range —
    without it there is no per-class control."""
    artifacts = trained_gan(bench_scale["gan_quality"], seed=0)

    def run():
        rng = np.random.default_rng(3)
        per_class = {}
        for label in range(5):
            samples = artifacts.sampler.sample(25, label=label, rng=rng)
            per_class[label] = float(np.mean([t.motion_range()
                                              for t in samples]))
        return per_class

    per_class = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("ablation: cGAN range-class conditioning")
    for label, motion_range in per_class.items():
        print(f"  class {label}: mean generated range {motion_range:.2f} m")
    # The condition must produce a clear low-to-high spread.
    assert per_class[4] > 1.5 * per_class[0]


@pytest.mark.benchmark(group="ablations")
def test_ablation_phantom_activation_q(benchmark):
    """Sec. 7: q ~ 0.5 maximizes occupancy confusion; q in {0, 1} wastes
    the phantoms entirely."""

    def run():
        return {
            q: OccupancyModel(4, 0.2, 4, q).mutual_information()
            for q in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        }

    leakage = benchmark(run)
    print()
    print("ablation: phantom activation probability q (N=4, p=0.2, M=4)")
    for q, bits in leakage.items():
        print(f"  q={q:.1f}  I(X;Z) = {bits:.3f} bits")
    assert leakage[0.5] == min(leakage.values())
    assert leakage[0.0] == max(leakage.values())
