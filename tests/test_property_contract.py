"""The paper's contract, end to end: the radar equation through ``sense``.

The channel gives a reflector the monostatic radar equation's amplitude,
``sqrt(rcs) / d**2``, so its received power falls as ``1 / d**4``. This
property checks it where the eavesdropper reads it, after production
Emit, Synthesize and RangeFFT: a still human (no RCS fluctuation, no
breathing, no multipath, no noise) standing exactly on a range bin peaks
in that bin, and its bin power times ``d**4`` is the same at every range.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rectangle
from repro.radar import ZERO_PAD_FACTOR, FmcwRadar, RadarConfig, Scene
from repro.radar.scene import BreathingSpec, HumanTarget
from repro.signal.spectral import range_axis
from repro.types import Trajectory

RADAR = FmcwRadar(RadarConfig(noise_std=0.0))
RANGE_BINS = range_axis(RADAR.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)
#: The bins between 1 m and 10 m, a room's span.
ROOM_BINS = np.flatnonzero((RANGE_BINS >= 1.0) & (RANGE_BINS <= 10.0))


def still_human_profile(distance: float, angle: float) -> np.ndarray:
    """Antenna 0's first-frame range profile of a still human at
    (``distance``, ``angle``) from the array."""
    spot = RADAR.array.point_at(distance, angle)
    scene = Scene(Rectangle(-20.0, 0.0, 20.0, 20.0))
    scene.add(HumanTarget(Trajectory(np.array([spot, spot]), dt=1.0),
                          rcs_fluctuation=0.0,
                          breathing=BreathingSpec(amplitude=0.0)))
    result = RADAR.sense(scene, 0.2, rng=np.random.default_rng(0))
    profile: np.ndarray = result.raw_profiles[0, 0]
    return profile


@settings(max_examples=20, derandomize=True, deadline=None)
@given(bins=st.lists(st.sampled_from(ROOM_BINS.tolist()), min_size=2,
                     max_size=2, unique=True),
       angle=st.floats(0.3, np.pi - 0.3))
def test_received_power_falls_as_the_fourth_power_of_range(bins, angle):
    scaled = []
    for k in bins:
        distance = float(RANGE_BINS[k])
        power = np.abs(still_human_profile(distance, angle)) ** 2
        assert int(np.argmax(power)) == k
        scaled.append(power[k] * distance ** 4)
    np.testing.assert_allclose(scaled[0], scaled[1], rtol=1e-9)
