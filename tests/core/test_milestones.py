"""Unit tests for milestone enumeration (Section 4.3.2)."""

from __future__ import annotations

import pytest

from repro.core import Job, compute_milestones, deadline_function


class TestDeadlineFunction:
    def test_deadline_function_encodes_release_and_weight(self):
        fn = deadline_function(Job("J", 3.0, weight=2.0))
        assert fn.constant == 3.0
        assert fn.slope == pytest.approx(0.5)


class TestMilestones:
    def test_single_job_has_no_milestone(self):
        assert compute_milestones([Job("J", 1.0)]) == []

    def test_deadline_meets_release_date(self):
        # d_1(F) = 0 + F reaches r_2 = 4 at F = 4.
        jobs = [Job("J1", 0.0, weight=1.0), Job("J2", 4.0, weight=1.0)]
        milestones = compute_milestones(jobs)
        assert milestones == [pytest.approx(4.0)]

    def test_deadline_meets_deadline(self):
        # d_1(F) = 0 + F, d_2(F) = 1 + F/2 cross at F = 2; d_1 also meets r_2=1 at F=1.
        jobs = [Job("J1", 0.0, weight=1.0), Job("J2", 1.0, weight=2.0)]
        milestones = compute_milestones(jobs)
        assert milestones == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_milestones_are_positive_sorted_distinct(self):
        jobs = [
            Job("a", 0.0, weight=1.0),
            Job("b", 0.0, weight=1.0),   # identical functions: no crossing kept
            Job("c", 2.0, weight=0.5),
            Job("d", 5.0, weight=2.0),
        ]
        milestones = compute_milestones(jobs)
        assert milestones == sorted(milestones)
        assert all(m > 0 for m in milestones)
        assert len(milestones) == len(set(milestones))

    def test_quadratic_bound_on_count(self):
        jobs = [Job(f"J{k}", float(k), weight=1.0 + k) for k in range(8)]
        milestones = compute_milestones(jobs)
        n = len(jobs)
        assert len(milestones) <= n * n - n

    def test_same_release_dates_same_weights_give_no_milestones(self):
        jobs = [Job(f"J{k}", 1.0, weight=2.0) for k in range(5)]
        assert compute_milestones(jobs) == []


