"""Detect's front end pinned bit for bit to the per-frame oracle.

Production Detect takes each map's median by one 1-D selection, builds the
3x3 peak mask over the threshold band only, and reuses read-only Kalman
constants. ``tests/detect_oracle.py`` keeps the code that replaced:
``np.median``, eight neighbour comparisons, ``np.eye`` per Kalman step.
These tests hold the two to the same bits:

- the selection median equals ``np.median`` as uint64 bit patterns, over
  sizes 1 and 2, odd and even sizes, heavy ties, signed zeros, infinities
  and NaN;
- over every catalog scenario and both Fig. 9 paths, the shipped tracker
  and the oracle tracker end with identical checkpoints (track ids, times,
  positions, powers, Kalman state and covariance, miss counters) and the
  same finalized tracks.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SignalProcessingError
from repro.experiments import fig9
from repro.radar import FmcwRadar, StreamingTracker, TrackerConfig
from repro.radar.stages import SensingResult
from repro.scenarios import build, scenario_names
from repro.signal.chirp import ChirpConfig
from repro.signal.detection import selection_median
from tests.detect_oracle import oracle_tracker, tracker_state

# NaN elements are the canonical quiet NaN: np.median returns whichever
# NaN its own partition leaves last, so NaN payloads are not comparable.
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5)
elements = st.one_of(
    st.sampled_from(SPECIALS),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, width=64),
)


def bits(value) -> int:
    return int(np.asarray(value, dtype=np.float64).view(np.uint64))


def assert_same_median(values: np.ndarray) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.median(values)
        got = selection_median(values)
    assert bits(got) == bits(expected), (values, got, expected)


class TestSelectionMedian:
    @settings(max_examples=300, deadline=None)
    @given(values=hnp.arrays(np.float64, st.integers(1, 40),
                             elements=elements))
    def test_bitwise_equals_np_median(self, values):
        assert_same_median(values)

    @settings(max_examples=150, deadline=None)
    @given(values=hnp.arrays(
        np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.sampled_from(SPECIALS)))
    def test_heavy_ties_on_2d_maps(self, values):
        assert_same_median(values)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6000),
           pool=st.sampled_from(["exponential", "ties", "zeros", "specials"]),
           nan=st.booleans())
    def test_large_maps(self, seed, size, pool, nan):
        """Sizes where numpy's vectorized selection takes over."""
        rng = np.random.default_rng(seed)
        if pool == "exponential":
            values = rng.exponential(size=size)
        elif pool == "ties":
            values = rng.integers(0, 4, size).astype(np.float64)
        elif pool == "zeros":
            values = rng.choice(np.array([0.0, -0.0]), size)
        else:
            values = rng.choice(np.array(SPECIALS[:4] + SPECIALS[5:]), size)
        if nan:
            values[rng.integers(0, size)] = np.nan
        assert_same_median(values)

    @pytest.mark.parametrize("values", [
        [-0.0], [0.0], [np.nan], [np.inf], [-np.inf],
        [-0.0, -0.0], [-0.0, 0.0], [np.inf, -np.inf], [np.inf, np.inf],
        [1.0, np.nan], [np.nan, np.nan], [-np.inf, -np.inf],
        [3.0, 1.0, 2.0], [1.0, 4.0, 2.0, 3.0],
    ])
    def test_sizes_one_and_two_and_small(self, values):
        assert_same_median(np.array(values, dtype=np.float64))

    @pytest.mark.parametrize("seed", [196, 329, 558, 945, 1008])
    def test_lower_middle_is_the_max_of_the_lower_half(self, seed):
        """After a single-kth partition, ``part[h - 1]`` is usually, not
        always, the lower middle; with numpy 2.4 these 1000-value maps are
        cases where it is not."""
        assert_same_median(np.random.default_rng(seed).exponential(size=1000))

    def test_empty_map_raises(self):
        with pytest.raises(SignalProcessingError, match="empty"):
            selection_median(np.empty((0, 181)))


# --------------------------------------------------------------------------
# The whole Detect stage against the oracle tracker
# --------------------------------------------------------------------------

#: Scenario sweep: the golden suites' short chirp, long enough for tracks
#: to confirm, coast and retire.
SCENARIO_CHIRP_S = 6.4e-5
SCENARIO_DURATION_S = 3.0
SCENARIO_SEED = 2022

CONFIGS = {
    "default": TrackerConfig(),
    "loose": TrackerConfig(min_track_points=3, min_hit_ratio=0.2,
                           threshold_factor=4.0, max_targets=12),
}


def sensed_scenario(name: str):
    built = build(name)
    config = dataclasses.replace(built.radar_configs[0],
                                 chirp=ChirpConfig(duration=SCENARIO_CHIRP_S))
    return FmcwRadar(config).sense(
        built.build_scene(), SCENARIO_DURATION_S,
        rng=np.random.default_rng(SCENARIO_SEED))


@pytest.fixture(scope="module")
def fig9_sweeps():
    """The (profiles, array) of each Fig. 9 path, as its fast run senses them."""
    captured = []
    original = SensingResult.tracks

    def spy(self, tracker_config=None):
        captured.append((self.profiles, self.array))
        return original(self, tracker_config)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(SensingResult, "tracks", spy)
        fig9.run(duration=6.0)
    assert len(captured) == 2
    return captured


def assert_trackers_agree(profiles, array, config: TrackerConfig) -> None:
    shipped = StreamingTracker(array, config)
    for profile in profiles:
        shipped.ingest(profile)
    oracle = oracle_tracker(profiles, array, config)
    ours, theirs = tracker_state(shipped), tracker_state(oracle)
    # json float reprs round-trip exactly and keep the sign of zero.
    assert json.dumps(ours) == json.dumps(theirs)


class TestDetectOracle:
    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
    def test_catalog_scenarios_match_oracle(self, name, config):
        result = sensed_scenario(name)
        assert_trackers_agree(result.profiles, result.array, config)

    @pytest.mark.parametrize("path", [0, 1], ids=["rectangle", "s-curve"])
    def test_fig9_paths_match_oracle(self, fig9_sweeps, path):
        profiles, array = fig9_sweeps[path]
        shipped = StreamingTracker(array)
        for profile in profiles:
            shipped.ingest(profile)
        assert shipped.tracks(), "the Fig. 9 walk must be tracked"
        for config in CONFIGS.values():
            assert_trackers_agree(profiles, array, config)
