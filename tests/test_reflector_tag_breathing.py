"""Tests for repro.reflector.tag and repro.reflector.breathing."""

import numpy as np
import pytest

from repro.errors import ReflectorError
from repro.radar import ChannelModel, RadarConfig, UniformLinearArray
from repro.reflector import (
    BreathingWaveform,
    ReflectorController,
    ReflectorPanel,
    RfProtectTag,
)
from repro.reflector.hardware import AntennaSwitchModel, SwitchModel
from repro.signal import ChirpConfig
from repro.types import Trajectory
from tests.receive_oracle import emit_frame


@pytest.fixture()
def panel():
    return ReflectorPanel((5.0, 1.3), wall_angle=0.0, normal_angle=np.pi / 2)


@pytest.fixture()
def array():
    config = RadarConfig(position=(5.0, 0.1), axis_angle=0.0,
                         facing_angle=np.pi / 2)
    return UniformLinearArray(config)


@pytest.fixture()
def deployed_tag(panel):
    controller = ReflectorController(panel, ChirpConfig())
    trajectory = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 20), dt=0.5)
    tag = RfProtectTag(panel)
    tag.deploy(controller.plan_trajectory(trajectory))
    return tag


class TestBreathingWaveform:
    def test_peak_phase_formula(self):
        waveform = BreathingWaveform(chest_amplitude=0.005, wavelength=0.05)
        assert waveform.peak_phase == pytest.approx(4 * np.pi * 0.005 / 0.05)

    def test_deterministic_without_rng(self):
        waveform = BreathingWaveform()
        times = np.linspace(0, 20, 200)
        first = waveform.phase_waveform(times)
        second = waveform.phase_waveform(times)
        assert first == pytest.approx(second)

    def test_amplitude_bounded(self):
        waveform = BreathingWaveform(asymmetry=0.0, variability=0.0)
        times = np.linspace(0, 40, 400)
        phases = waveform.phase_waveform(times)
        assert np.abs(phases).max() <= waveform.peak_phase + 1e-9

    def test_period_matches_frequency(self):
        waveform = BreathingWaveform(frequency=0.25, asymmetry=0.0,
                                     variability=0.0)
        dt = 0.1
        times = np.arange(0, 40, dt)
        phases = waveform.phase_waveform(times)
        spectrum = np.abs(np.fft.rfft(phases - phases.mean()))
        freqs = np.fft.rfftfreq(times.size, d=dt)
        assert freqs[np.argmax(spectrum)] == pytest.approx(0.25, abs=0.02)

    def test_variability_wanders_with_rng(self, rng):
        waveform = BreathingWaveform(variability=0.1)
        times = np.linspace(0, 20, 200)
        wandered = waveform.phase_waveform(times, rng)
        clean = waveform.phase_waveform(times)
        assert not np.allclose(wandered, clean)

    def test_rejects_invalid(self):
        with pytest.raises(ReflectorError):
            BreathingWaveform(chest_amplitude=0.0)
        with pytest.raises(ReflectorError):
            BreathingWaveform(asymmetry=0.9)
        with pytest.raises(ReflectorError):
            BreathingWaveform(frequency=-1.0)


class TestTagConstruction:
    def test_effective_rcs_includes_chain(self, panel):
        tag = RfProtectTag(panel, base_rcs=0.01)
        # The LNA dominates the chain: effective RCS must exceed base.
        assert tag.effective_rcs > tag.base_rcs

    def test_panel_larger_than_switch_rejected(self):
        big_panel = ReflectorPanel((5.0, 1.3), num_antennas=9)
        with pytest.raises(ReflectorError):
            RfProtectTag(big_panel, antenna_switch=AntennaSwitchModel(num_ports=8))

    def test_rejects_bad_rcs(self, panel):
        with pytest.raises(ReflectorError):
            RfProtectTag(panel, base_rcs=0.0)


class TestTagPathComponents:
    def test_idle_tag_is_silent(self, panel, array, rng):
        tag = RfProtectTag(panel)
        assert emit_frame([tag], 0.0, array, ChannelModel(), rng) == []

    def test_outside_schedule_is_silent(self, deployed_tag, array, rng):
        components = emit_frame([deployed_tag], 100.0, array,
                                ChannelModel(), rng)
        assert components == []

    def test_emits_harmonic_lines(self, deployed_tag, array, rng):
        components = emit_frame([deployed_tag], 1.0, array,
                                ChannelModel(), rng)
        offsets = sorted({c.beat_offset_hz for c in components})
        assert 0.0 in offsets                       # static DC line
        positive = [o for o in offsets if o > 0]
        negative = [o for o in offsets if o < 0]
        assert positive and negative
        # Harmonics are integer multiples of the fundamental.
        fundamental = min(positive)
        for offset in positive:
            assert offset / fundamental == pytest.approx(
                round(offset / fundamental)
            )

    def test_all_lines_from_physical_antenna(self, deployed_tag, array, rng):
        components = emit_frame([deployed_tag], 1.0, array,
                                ChannelModel(), rng)
        distances = {round(c.distance, 6) for c in components}
        # Without multipath, every line shares the physical antenna path.
        assert len(distances) == 1

    def test_fundamental_stronger_than_harmonics(self, deployed_tag, array, rng):
        components = emit_frame([deployed_tag], 1.0, array,
                                ChannelModel(), rng)
        by_offset = {c.beat_offset_hz: c.amplitude for c in components}
        fundamental = min(o for o in by_offset if o > 0)
        third = 3 * fundamental
        assert by_offset[third] == pytest.approx(by_offset[fundamental] / 3,
                                                 rel=1e-6)

    def test_multipath_dresses_main_lines(self, deployed_tag, array, rng):
        from repro.radar.channel import MultipathSpec
        channel = ChannelModel(multipath=MultipathSpec(mean_paths=3.0))
        components = emit_frame([deployed_tag], 1.0, array, channel, rng)
        no_multipath = emit_frame([deployed_tag], 1.0, array,
                                  ChannelModel(), rng)
        assert len(components) > len(no_multipath)

    def test_clear_stops_all_ghosts(self, deployed_tag, array, rng):
        deployed_tag.clear()
        assert emit_frame([deployed_tag], 1.0, array, ChannelModel(), rng) == []


class TestGhostReports:
    def test_one_report_per_schedule(self, panel):
        controller = ReflectorController(panel, ChirpConfig())
        tag = RfProtectTag(panel)
        for _ in range(3):
            trajectory = Trajectory(
                np.linspace([4.5, 4.0], [5.5, 5.0], 10), dt=0.5
            )
            tag.deploy(controller.plan_trajectory(trajectory))
        reports = tag.ghost_reports()
        assert len(reports) == 3
        assert [r.ghost_id for r in reports] == [0, 1, 2]

    def test_report_carries_intended_trajectory(self, panel):
        controller = ReflectorController(panel, ChirpConfig())
        trajectory = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 10),
                                dt=0.5)
        tag = RfProtectTag(panel)
        schedule = controller.plan_trajectory(trajectory)
        tag.deploy(schedule)
        report = tag.ghost_reports()[0]
        assert report.trajectory.points == pytest.approx(
            schedule.intended_trajectory().points
        )


class TestSingleSidebandAblation:
    def test_ssb_switch_removes_mirror_lines(self, panel, array, rng):
        controller = ReflectorController(panel, ChirpConfig())
        trajectory = Trajectory(np.linspace([4.5, 4.0], [5.5, 5.0], 10),
                                dt=0.5)
        tag = RfProtectTag(panel, switch=SwitchModel(include_negative=False))
        tag.deploy(controller.plan_trajectory(trajectory))
        components = emit_frame([tag], 1.0, array, ChannelModel(), rng)
        assert all(c.beat_offset_hz >= 0 for c in components)
