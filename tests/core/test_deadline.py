"""Unit tests for deadline feasibility (Lemma 1)."""

from __future__ import annotations

import pytest

from repro.core import (
    Instance,
    Job,
    check_deadline_feasibility,
    minimize_makespan,
)
from repro.exceptions import InvalidInstanceError


class TestBasicFeasibility:
    def test_loose_deadlines_are_feasible(self, tiny_instance):
        result = check_deadline_feasibility(tiny_instance, [100.0, 100.0, 100.0])
        assert result.feasible
        result.schedule.validate()
        for j, deadline in enumerate([100.0, 100.0, 100.0]):
            assert result.schedule.completion_time(j) <= deadline + 1e-6

    def test_impossible_deadlines_are_infeasible(self, tiny_instance):
        result = check_deadline_feasibility(tiny_instance, [0.5, 1.2, 2.6])
        assert not result.feasible
        assert result.schedule is None

    def test_deadline_before_release_is_trivially_infeasible(self, tiny_instance):
        result = check_deadline_feasibility(tiny_instance, [10.0, 0.5, 10.0])
        assert not result.feasible
        # The trivial rejection does not even build an LP.
        assert result.lp_variables == 0

    def test_trivial_rejection_reports_canonical_backend(self, tiny_instance):
        # Bench records key on the backend name; the early exit used to
        # report an empty string.  The label must match what a real solve of
        # the same system would report.
        from repro.lp.backends import BACKEND_LABELS

        for requested, label in BACKEND_LABELS.items():
            rejected = check_deadline_feasibility(
                tiny_instance, [10.0, 0.5, 10.0], backend=requested
            )
            solved = check_deadline_feasibility(
                tiny_instance, [50.0, 50.0, 50.0], backend=requested, build_schedule=False
            )
            assert not rejected.feasible
            assert rejected.backend == label == solved.backend

    def test_deadline_within_tolerance_of_release_goes_to_the_lp(self, tiny_instance):
        # A deadline a hair below the release date (inside ABS_TOL) is a
        # borderline system, not a trivially-infeasible one: it must reach
        # the LP instead of being rejected by the strict `<` comparison.
        release = tiny_instance.jobs[1].release_date
        deadlines = [50.0, release - 1e-10, 50.0]
        result = check_deadline_feasibility(tiny_instance, deadlines, build_schedule=False)
        assert result.lp_variables > 0  # the LP was actually built
        assert not result.feasible  # the job cannot run in a zero-width window

    def test_wrong_number_of_deadlines_rejected(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            check_deadline_feasibility(tiny_instance, [10.0])

    def test_build_schedule_can_be_skipped(self, tiny_instance):
        result = check_deadline_feasibility(tiny_instance, [50.0, 50.0, 50.0], build_schedule=False)
        assert result.feasible
        assert result.schedule is None


class TestTightness:
    def test_makespan_value_is_a_feasible_common_deadline(self, batch_instance):
        makespan = minimize_makespan(batch_instance).makespan
        n = batch_instance.num_jobs
        at_makespan = check_deadline_feasibility(batch_instance, [makespan + 1e-6] * n)
        assert at_makespan.feasible
        below_makespan = check_deadline_feasibility(batch_instance, [makespan * 0.95] * n)
        assert not below_makespan.feasible

    def test_single_job_exact_threshold(self, single_job_instance):
        # Fluid completion of the single job is at t = 3.
        feasible = check_deadline_feasibility(single_job_instance, [3.0 + 1e-9])
        infeasible = check_deadline_feasibility(single_job_instance, [2.9])
        assert feasible.feasible
        assert not infeasible.feasible

    def test_feasibility_is_monotone_in_deadlines(self, restricted_instance):
        n = restricted_instance.num_jobs
        # Find some threshold by scanning; feasibility must be monotone.
        statuses = []
        for horizon in (2.0, 5.0, 10.0, 30.0, 100.0):
            statuses.append(
                check_deadline_feasibility(
                    restricted_instance, [horizon] * n, build_schedule=False
                ).feasible
            )
        # Once feasible, always feasible for larger horizons.
        first_true = statuses.index(True) if True in statuses else len(statuses)
        assert all(statuses[first_true:])

    def test_schedule_meets_every_deadline(self, restricted_instance):
        deadlines = [20.0, 40.0, 15.0, 60.0]
        result = check_deadline_feasibility(restricted_instance, deadlines)
        assert result.feasible
        result.schedule.validate()
        for j, deadline in enumerate(deadlines):
            assert result.schedule.completion_time(j) <= deadline + 1e-6


class TestPreemptiveDeadlines:
    def test_preemptive_is_harder_than_divisible(self, single_job_instance):
        # Divisible can finish the single job at 3; preemptive needs 4.
        assert check_deadline_feasibility(single_job_instance, [3.5]).feasible
        assert not check_deadline_feasibility(single_job_instance, [3.5], preemptive=True).feasible
        assert check_deadline_feasibility(single_job_instance, [4.0 + 1e-9], preemptive=True).feasible

    def test_preemptive_witness_schedule_is_valid(self, batch_instance):
        n = batch_instance.num_jobs
        result = check_deadline_feasibility(batch_instance, [30.0] * n, preemptive=True)
        assert result.feasible
        assert result.schedule.divisible is False
        result.schedule.validate()

    def test_divisible_feasible_whenever_preemptive_is(self, restricted_instance):
        n = restricted_instance.num_jobs
        for horizon in (10.0, 20.0, 50.0):
            preemptive = check_deadline_feasibility(
                restricted_instance, [horizon] * n, preemptive=True, build_schedule=False
            ).feasible
            divisible = check_deadline_feasibility(
                restricted_instance, [horizon] * n, build_schedule=False
            ).feasible
            if preemptive:
                assert divisible
