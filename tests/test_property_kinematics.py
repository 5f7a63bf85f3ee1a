"""Property wall: stacked trajectory kinematics against the per-trajectory oracle.

Production featurizes a trajectory set in one stacked pass per
``(T, dt)`` group and memoizes each row and diameter on its (immutable)
trajectory; the floor-plan scan tests every step against a wall at once.
These suites pin all three to ``tests/trajectory_oracle.py`` bit for bit
— feature rows and diameters compared as uint64 patterns, crossing sets
and repaired points exactly — over mixed lengths and sampling intervals,
static and near-static motion, duplicate members, integer-grid points on
the wall lines, and the diameter's block boundaries.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.types
from repro.errors import ConfigurationError
from repro.experiments.table1 import RaterModel
from repro.geometry import Rectangle
from repro.metrics import trajectory_features
from repro.metrics.fid import feature_matrix
from repro.trajectories import FloorPlan, FloorPlanConstraint, Wall
from repro.types import Trajectory, motion_ranges, point_set_diameters
from tests import trajectory_oracle as oracle

_settings = settings(max_examples=40, deadline=None)

KINDS = ("walk", "static", "near-static", "grid", "uniform")


def _points(kind: str, length: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "walk":
        return np.cumsum(rng.normal(0.0, 0.3, (length, 2)), axis=0)
    if kind == "static":
        return np.tile(rng.normal(size=2), (length, 1))
    if kind == "near-static":
        return 5.0 + np.cumsum(rng.normal(0.0, 1e-7, (length, 2)), axis=0)
    if kind == "grid":
        steps = rng.integers(-1, 2, (length, 2))
        return np.cumsum(steps, axis=0).astype(float)
    return rng.uniform(-10.0, 10.0, (length, 2))


@st.composite
def trajectory_sets(draw: st.DrawFn, min_length: int = 5,
                    max_length: int = 90) -> list[Trajectory]:
    """1-12 trajectories of mixed kinds, lengths and dts, with duplicates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dts = draw(st.lists(st.sampled_from([0.1, 0.2, 10.0 / 49.0, 0.5]),
                        min_size=1, max_size=3))
    specs = draw(st.lists(
        st.tuples(st.sampled_from(KINDS),
                  st.integers(min_length, max_length),
                  st.sampled_from(dts)),
        min_size=1, max_size=12))
    trajectories = [Trajectory(_points(kind, length, rng), dt=dt)
                    for kind, length, dt in specs]
    repeats = draw(st.lists(st.integers(0, len(trajectories) - 1),
                            max_size=4))
    # The same object twice, and an equal but distinct copy.
    trajectories += [trajectories[i] for i in repeats]
    trajectories += [trajectories[i].replace(points=trajectories[i].points)
                     for i in repeats]
    return trajectories


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


class TestFeatureMatrix:
    @_settings
    @given(trajectory_sets())
    def test_rows_bitwise_equal_oracle(self, trajectories):
        matrix = feature_matrix(trajectories)
        assert matrix.shape == (len(trajectories), 12)
        expected = np.vstack([oracle.trajectory_features(t)
                              for t in trajectories])
        np.testing.assert_array_equal(_bits(matrix), _bits(expected))

    @_settings
    @given(trajectory_sets(), st.sampled_from([1, 30, 400]))
    def test_rows_independent_of_pass_size(self, trajectories, block):
        expected = feature_matrix([Trajectory(t.points, dt=t.dt)
                                   for t in trajectories])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.types, "_BLOCK_VALUES", block)
            matrix = feature_matrix(trajectories)
        np.testing.assert_array_equal(_bits(matrix), _bits(expected))

    @_settings
    @given(trajectory_sets())
    def test_memoized_rows_equal_fresh_computation(self, trajectories):
        first = feature_matrix(trajectories)
        again = feature_matrix(trajectories)  # every row from the memo
        fresh = feature_matrix([Trajectory(t.points, dt=t.dt)
                                for t in trajectories])
        np.testing.assert_array_equal(_bits(again), _bits(first))
        np.testing.assert_array_equal(_bits(fresh), _bits(first))
        for trajectory, row in zip(trajectories, first):
            np.testing.assert_array_equal(
                _bits(trajectory_features(trajectory)), _bits(row))

    def test_returns_fresh_writeable_arrays(self, sample_trajectory):
        matrix = feature_matrix([sample_trajectory])
        row = trajectory_features(sample_trajectory)
        matrix[0, 0] = row[0] = -1.0  # callers own their copies
        assert trajectory_features(sample_trajectory)[0] != -1.0

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_fewer_than_five_points_raises(self, length):
        short = Trajectory(np.arange(2.0 * length).reshape(length, 2), dt=0.2)
        long = Trajectory(np.arange(20.0).reshape(10, 2), dt=0.2)
        with pytest.raises(ConfigurationError, match=">= 5 points"):
            trajectory_features(short)
        with pytest.raises(ConfigurationError, match=">= 5 points"):
            feature_matrix([long, short])

    def test_empty_set(self):
        assert feature_matrix([]).shape == (0, 12)


class TestMotionRange:
    @_settings
    @given(trajectory_sets(min_length=1, max_length=120))
    def test_diameters_bitwise_equal_pairwise_max(self, trajectories):
        ranges = motion_ranges(trajectories)
        expected = [oracle.motion_range(t.points) for t in trajectories]
        np.testing.assert_array_equal(_bits(ranges), _bits(expected))

    @_settings
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.integers(1, 40), st.sampled_from([1, 5, 37, 400, 2000]))
    def test_block_boundaries(self, seed, count, length, block):
        points = np.random.default_rng(seed).normal(size=(count, length, 2))
        expected = [oracle.motion_range(p) for p in points]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.types, "_BLOCK_VALUES", block)
            diameters = point_set_diameters(points)
        np.testing.assert_array_equal(_bits(diameters), _bits(expected))

    def test_long_trajectory_row_blocks(self):
        points = np.random.default_rng(7).normal(size=(700, 2))
        trajectory = Trajectory(points, dt=0.1)
        assert trajectory.motion_range() == oracle.motion_range(points)

    def test_memo_survives_relabelling_only(self, sample_trajectory):
        diameter = sample_trajectory.motion_range()
        relabelled = sample_trajectory.replace(label=4)
        moved = sample_trajectory.translated((1.0, 0.0))
        assert relabelled._memo["diameter"] == diameter
        assert "diameter" not in moved._memo
        assert relabelled.motion_range() == diameter


class TestImmutability:
    def test_points_are_read_only(self, sample_trajectory):
        with pytest.raises(ValueError):
            sample_trajectory.points[0] = (0.0, 0.0)
        with pytest.raises(ValueError):
            sample_trajectory.points.flags.writeable = True

    def test_source_array_is_copied(self):
        source = np.linspace([0.0, 0.0], [4.0, 3.0], 6)
        trajectory = Trajectory(source, dt=0.2)
        before = trajectory.motion_range()
        source[:] = 0.0
        assert trajectory.points[-1].tolist() == [4.0, 3.0]
        assert trajectory.motion_range() == before == 5.0

    def test_pickle_round_trip_stays_read_only(self, sample_trajectory):
        sample_trajectory.motion_range()
        restored = pickle.loads(pickle.dumps(sample_trajectory))
        np.testing.assert_array_equal(restored.points,
                                      sample_trajectory.points)
        assert not restored.points.flags.writeable
        assert restored.motion_range() == sample_trajectory.motion_range()


class TestRaterModel:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 3.0]))
    def test_judgements_match_per_trajectory_oracle(self, seed, noise):
        rng = np.random.default_rng(seed)
        reference = [Trajectory(_points("walk", 30, rng), dt=0.2)
                     for _ in range(12)]
        shown = [Trajectory(_points(kind, 30, rng), dt=0.2)
                 for kind in KINDS]
        oracle_rng = np.random.default_rng(seed + 1)
        threshold, expected = oracle.rater_judgements(
            [Trajectory(t.points, dt=t.dt) for t in reference],
            [Trajectory(t.points, dt=t.dt) for t in shown],
            judgement_noise=noise, rng=oracle_rng)
        model_rng = np.random.default_rng(seed + 1)
        rater = RaterModel(reference, judgement_noise=noise, rng=model_rng)
        assert rater._threshold == threshold
        assert [rater.perceive_real(t) for t in shown] == expected
        assert (model_rng.bit_generator.state
                == oracle_rng.bit_generator.state)


# Integer-grid coordinates put points exactly on wall lines and wall ends.
grid = st.integers(0, 8).map(float)
fine = st.floats(0.0, 8.0, allow_nan=False)


@st.composite
def plans(draw: st.DrawFn) -> FloorPlan:
    walls = []
    for _ in range(draw(st.integers(1, 3))):
        start = (draw(grid), draw(grid))
        end = (draw(grid), draw(grid))
        if start != end:
            walls.append(Wall(start, end))
    return FloorPlan(Rectangle.from_size(8.0, 8.0), walls=walls)


@st.composite
def walks(draw: st.DrawFn) -> Trajectory:
    coordinate = draw(st.sampled_from([grid, fine]))
    points = draw(st.lists(st.tuples(coordinate, coordinate),
                           min_size=2, max_size=30))
    return Trajectory(np.array(points), dt=0.2)


class TestWallCrossings:
    @settings(max_examples=80, deadline=None)
    @given(plans(), walks())
    def test_crossing_steps_equal_oracle(self, plan, walk):
        expected = oracle.crossing_steps(plan, walk.points)
        assert plan.crossing_steps(walk).tolist() == expected
        for index in range(len(walk) - 1):
            assert plan.step_crosses_wall(
                walk.points[index], walk.points[index + 1]
            ) == (index in expected)

    def test_collinear_and_endpoint_touching_steps(self):
        plan = FloorPlan(Rectangle.from_size(8.0, 8.0),
                         walls=[Wall((2.0, 2.0), (2.0, 6.0))])
        # Step i runs from row i to row i + 1.
        walk = Trajectory([
            [1.0, 1.0],  # 0: ends on the wall's line, below the wall
            [2.0, 1.0],  # 1: collinear, ends on the wall's end point
            [2.0, 2.0],  # 2: collinear, inside the wall
            [2.0, 3.0],  # 3: leaves from a point on the wall
            [3.0, 3.0],  # 4: a proper crossing
            [1.0, 5.0],  # 5: passes exactly through the far end point
            [3.0, 7.0],  # 6: clear of the wall
            [4.0, 7.0],
        ], dt=0.2)
        expected = oracle.crossing_steps(plan, walk.points)
        assert expected == [1, 2, 3, 4, 5]
        assert plan.crossing_steps(walk).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(plans(), walks(), st.sampled_from([0.0, 0.1]),
           st.integers(1, 8))
    def test_repair_equals_oracle(self, plan, walk, margin, iterations):
        constraint = FloorPlanConstraint(plan, margin=margin,
                                         max_repair_iterations=iterations)
        repaired = constraint.repair(walk)
        expected = oracle.repair(plan, walk, margin=margin,
                                 max_repair_iterations=iterations)
        if expected is None:
            assert repaired is None
        else:
            assert repaired is not None
            np.testing.assert_array_equal(_bits(repaired.points),
                                          _bits(expected))
