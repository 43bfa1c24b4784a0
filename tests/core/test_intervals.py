"""Unit tests for epochal times and interval construction."""

from __future__ import annotations

import pytest

from repro.core import Affine, build_affine_intervals, build_constant_intervals
from repro.core.intervals import distinct_sorted
from repro.exceptions import InvalidInstanceError


class TestDistinctSorted:
    def test_sorts_and_merges_duplicates(self):
        assert distinct_sorted([3.0, 1.0, 3.0, 2.0]) == [1.0, 2.0, 3.0]

    def test_merges_near_duplicates(self):
        values = distinct_sorted([1.0, 1.0 + 1e-12, 2.0])
        assert values == [1.0, 2.0]

    def test_empty_input(self):
        assert distinct_sorted([]) == []


class TestConstantIntervals:
    def test_intervals_between_release_dates(self):
        intervals = build_constant_intervals([0.0, 2.0, 5.0])
        assert len(intervals) == 2
        assert intervals[0].lower_at() == 0.0 and intervals[0].upper_at() == 2.0
        assert intervals[1].lower_at() == 2.0 and intervals[1].upper_at() == 5.0
        assert intervals[0].length_at() == pytest.approx(2.0)

    def test_duplicate_times_collapse(self):
        intervals = build_constant_intervals([0.0, 2.0, 2.0, 5.0])
        assert len(intervals) == 2

    def test_single_time_gives_no_interval(self):
        assert build_constant_intervals([1.0]) == []

    def test_empty_times_rejected(self):
        with pytest.raises(InvalidInstanceError):
            build_constant_intervals([])

    def test_indices_are_consecutive(self):
        intervals = build_constant_intervals([0.0, 1.0, 2.0, 3.0])
        assert [interval.index for interval in intervals] == [0, 1, 2]


class TestAffineIntervals:
    def test_ordering_follows_sample_objective(self):
        release = Affine.const(0.0)
        deadline_fast = Affine(0.0, 1.0)     # 0 + F  (weight 1)
        deadline_slow = Affine(2.0, 0.25)    # 2 + F/4 (released later, heavier weight)
        # At F = 1 the order is 0 < 1 (fast deadline) < 2.25 (slow deadline).
        intervals = build_affine_intervals([release, deadline_fast, deadline_slow], 1.0)
        assert len(intervals) == 2
        assert intervals[0].lower_at(1.0) == pytest.approx(0.0)
        assert intervals[0].upper_at(1.0) == pytest.approx(1.0)
        assert intervals[1].upper_at(1.0) == pytest.approx(2.25)
        # At F = 4 (beyond the crossing at F = 8/3) the same functions give a
        # different order; rebuilding at that sample re-orders the cuts.
        intervals_late = build_affine_intervals([release, deadline_fast, deadline_slow], 4.0)
        assert intervals_late[0].upper_at(4.0) == pytest.approx(3.0)
        assert intervals_late[1].upper_at(4.0) == pytest.approx(4.0)

    def test_functionally_equal_cuts_are_merged(self):
        duplicated = [Affine(0.0, 1.0), Affine(0.0, 1.0), Affine.const(0.0)]
        intervals = build_affine_intervals(duplicated, 2.0)
        assert len(intervals) == 1

    def test_interval_length_is_affine_in_objective(self):
        release = Affine.const(1.0)
        deadline = Affine(1.0, 0.5)
        (interval,) = build_affine_intervals([release, deadline], 2.0)
        length = interval.length()
        assert length.constant == pytest.approx(0.0)
        assert length.slope == pytest.approx(0.5)
        assert interval.length_at(6.0) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInstanceError):
            build_affine_intervals([], 1.0)
