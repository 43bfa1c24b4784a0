"""Unit tests for the shared LP-skeleton builder (Systems (2)/(3)/(5))."""

from __future__ import annotations

import pytest

from repro.core import Affine, Instance, Job
from repro.core.formulations import (
    build_allocation_model,
    divisible_schedule_from_solution,
    preemptive_schedule_from_solution,
)
from repro.core.intervals import build_constant_intervals
from repro.core.milestones import deadline_function
from repro.lp.backends import solve_form
from repro.lp.solution import require_optimal


@pytest.fixture
def instance() -> Instance:
    jobs = [Job("A", 0.0, weight=1.0), Job("B", 2.0, weight=2.0)]
    costs = [[4.0, 2.0], [8.0, float("inf")]]
    return Instance.from_costs(jobs, costs)


class TestVariableCreation:
    def test_release_dates_remove_variables(self, instance):
        intervals = build_constant_intervals([0.0, 2.0, 10.0])
        alloc = build_allocation_model(instance, intervals, deadlines=None,
                                       objective_bounds=None)
        # Job B (released at 2) may not appear in the first interval [0, 2).
        assert (0, 1, 0) not in alloc.variables
        assert (0, 1, 1) in alloc.variables
        # Job A may appear in both intervals on machine 0.
        assert (0, 0, 0) in alloc.variables and (0, 0, 1) in alloc.variables

    def test_forbidden_machines_remove_variables(self, instance):
        intervals = build_constant_intervals([0.0, 2.0, 10.0])
        alloc = build_allocation_model(instance, intervals)
        # Machine 1 cannot process job B at all.
        assert all((1, 1, t) not in alloc.variables for t in range(len(intervals)))

    def test_deadlines_remove_variables(self, instance):
        intervals = build_constant_intervals([0.0, 2.0, 10.0])
        deadlines = [Affine.const(2.0), Affine.const(10.0)]
        alloc = build_allocation_model(instance, intervals, deadlines=deadlines)
        # Job A's deadline is 2: it may not appear in the interval [2, 10).
        assert (0, 0, 1) not in alloc.variables
        assert (0, 0, 0) in alloc.variables

    def test_impossible_job_yields_infeasible_model(self):
        jobs = [Job("A", 0.0, weight=1.0)]
        instance = Instance.from_costs(jobs, [[5.0]])
        intervals = build_constant_intervals([0.0, 1.0])  # deadline 1 < processing 5
        deadlines = [Affine.const(1.0)]
        alloc = build_allocation_model(instance, intervals, deadlines=deadlines)
        assert not solve_form(alloc.form).is_optimal


class TestObjectiveVariable:
    def test_objective_variable_created_with_bounds(self, instance):
        deadlines = [deadline_function(job) for job in instance.jobs]
        epochal = deadlines + [Affine.const(job.release_date) for job in instance.jobs]
        from repro.core.intervals import build_affine_intervals

        intervals = build_affine_intervals(epochal, 5.0)
        alloc = build_allocation_model(
            instance, intervals, deadlines=deadlines,
            objective_bounds=(1.0, 50.0), sample_objective=5.0,
        )
        assert alloc.objective_column is not None
        assert tuple(alloc.form.bounds[alloc.objective_column]) == (1.0, 50.0)
        solution = require_optimal(solve_form(alloc.form))
        assert 1.0 - 1e-9 <= solution.values[alloc.objective_column] <= 50.0 + 1e-9

    def test_affine_length_without_objective_variable_rejected(self, instance):
        # Interval lengths that depend on F require an objective variable.
        from repro.core.intervals import TimeInterval

        intervals = [TimeInterval(0, Affine.const(0.0), Affine(0.0, 1.0))]
        with pytest.raises(ValueError):
            build_allocation_model(instance, intervals, deadlines=None, objective_bounds=None)


class TestScheduleReconstruction:
    def test_divisible_and_preemptive_reconstruction(self, instance):
        intervals = build_constant_intervals([0.0, 2.0, 30.0])
        alloc = build_allocation_model(instance, intervals, preemptive=True)
        solution = require_optimal(solve_form(alloc.form))

        divisible = divisible_schedule_from_solution(alloc, solution)
        divisible.validate()
        preemptive = preemptive_schedule_from_solution(alloc, solution)
        preemptive.divisible = False
        preemptive.validate()

    def test_allocation_extraction_drops_dust(self, instance):
        intervals = build_constant_intervals([0.0, 2.0, 30.0])
        alloc = build_allocation_model(instance, intervals)
        solution = require_optimal(solve_form(alloc.form))
        fractions = alloc.allocation(solution)
        assert all(value > 1e-10 for value in fractions.values())
        # Every key refers to an existing variable.
        assert set(fractions) <= set(alloc.variables)
