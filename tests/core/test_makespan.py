"""Unit tests for makespan minimisation (Theorem 1)."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job, minimize_makespan


class TestSingleIntervalCases:
    def test_single_job_uses_both_machines(self, single_job_instance):
        # One job, costs 4 and 12: perfect sharing finishes at 1 / (1/4 + 1/12) = 3.
        result = minimize_makespan(single_job_instance)
        assert result.makespan == pytest.approx(3.0, abs=1e-6)
        result.schedule.validate()

    def test_batch_lower_bound_is_total_work_over_total_speed(self, batch_instance):
        result = minimize_makespan(batch_instance)
        result.schedule.validate()
        # The divisible makespan can never beat the fluid bound in which every
        # machine is busy all the time on the "best" distribution; a simple
        # valid lower bound is the largest single-job fluid completion.
        fluid_bounds = [
            batch_instance.lower_bound_flow(j) for j in range(batch_instance.num_jobs)
        ]
        assert result.makespan >= max(fluid_bounds) - 1e-6

    def test_identical_machines_batch(self):
        # Two identical machines, two unit jobs released together: makespan 1.
        jobs = [Job("a", 0.0), Job("b", 0.0)]
        costs = [[1.0, 1.0], [1.0, 1.0]]
        result = minimize_makespan(Instance.from_costs(jobs, costs))
        assert result.makespan == pytest.approx(1.0, abs=1e-6)
        result.schedule.validate()


class TestReleaseDates:
    def test_makespan_at_least_last_release_plus_fastest_remaining(self, tiny_instance):
        result = minimize_makespan(tiny_instance)
        result.schedule.validate()
        last = tiny_instance.jobs[-1]
        assert result.makespan >= last.release_date
        assert result.makespan == pytest.approx(
            last.release_date + result.delta, abs=1e-9
        )

    def test_known_small_instance(self, tiny_instance):
        # Verified by hand / by the LP itself on first implementation: the
        # optimum of this instance is 4.25 (J3 arrives at 2.5 and the residual
        # work is spread over both machines).
        result = minimize_makespan(tiny_instance)
        assert result.makespan == pytest.approx(4.25, abs=1e-6)

    def test_late_single_job(self):
        jobs = [Job("early", 0.0), Job("late", 100.0)]
        costs = [[1.0, 1.0]]
        result = minimize_makespan(Instance.from_costs(jobs, costs))
        assert result.makespan == pytest.approx(101.0, abs=1e-6)

    def test_schedule_never_starts_before_release(self, restricted_instance):
        result = minimize_makespan(restricted_instance)
        result.schedule.validate()
        for piece in result.schedule.pieces:
            job = restricted_instance.jobs[piece.job_index]
            assert piece.start >= job.release_date - 1e-9


class TestAgainstHeuristicUpperBounds:
    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_makespan_below_sequential_schedule(self, random_instances, seed):
        instance = random_instances(count=seed + 1)[seed]
        result = minimize_makespan(instance)
        result.schedule.validate()
        # Sequential execution on fastest machines is a valid schedule, hence
        # an upper bound.
        cursor = 0.0
        for j, job in enumerate(instance.jobs):
            cursor = max(cursor, job.release_date) + instance.min_cost(j)
        assert result.makespan <= cursor + 1e-6


class TestPreemptiveMakespan:
    def test_preemptive_single_job_cannot_be_split(self, single_job_instance):
        # Without divisibility a single job runs on one machine at a time; the
        # best possible makespan is the fastest machine's time, 4.
        result = minimize_makespan(single_job_instance, preemptive=True)
        result.schedule.validate()
        assert result.makespan == pytest.approx(4.0, abs=1e-5)

    def test_preemptive_at_least_divisible(self, tiny_instance, batch_instance):
        for instance in (tiny_instance, batch_instance):
            divisible = minimize_makespan(instance).makespan
            preemptive = minimize_makespan(instance, preemptive=True).makespan
            assert preemptive >= divisible - 1e-6

    def test_preemptive_schedule_respects_no_parallel_execution(self, batch_instance):
        result = minimize_makespan(batch_instance, preemptive=True)
        assert result.schedule.divisible is False
        result.schedule.validate()

    def test_lp_statistics_are_reported(self, tiny_instance):
        result = minimize_makespan(tiny_instance)
        assert result.lp_variables > 0
        assert result.lp_constraints > 0
        assert result.num_intervals == 3
