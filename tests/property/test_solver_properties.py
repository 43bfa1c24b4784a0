"""Property-based tests of the scheduling solvers (hypothesis).

These encode the paper's structural facts as invariants over random instances:

* every produced schedule is valid (release dates, capacity, completion);
* the divisible optimum is a lower bound for the preemptive optimum, which in
  turn lower-bounds any non-divisible heuristic;
* the optimal max weighted flow is monotone under weight scaling and never
  below the fluid lower bound;
* deadline feasibility is monotone in the deadlines.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Instance,
    Job,
    check_deadline_feasibility,
    deadline_function,
    minimize_makespan,
    minimize_max_weighted_flow,
)

job_weights = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
release_dates = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
processing_times = st.floats(min_value=0.5, max_value=15.0, allow_nan=False)


@st.composite
def small_instance(draw):
    """A random unrelated instance with 1-5 jobs and 1-3 machines."""
    num_jobs = draw(st.integers(min_value=1, max_value=5))
    num_machines = draw(st.integers(min_value=1, max_value=3))
    jobs = [
        Job(
            name=f"J{j}",
            release_date=draw(release_dates),
            weight=draw(job_weights),
        )
        for j in range(num_jobs)
    ]
    costs = [
        [draw(processing_times) for _ in range(num_jobs)] for _ in range(num_machines)
    ]
    return Instance.from_costs(jobs, costs)


class TestSolverInvariants:
    @given(small_instance())
    @settings(max_examples=20, deadline=None)
    def test_divisible_schedules_are_always_valid(self, instance):
        result = minimize_max_weighted_flow(instance)
        result.schedule.validate()
        assert result.schedule.max_weighted_flow <= result.objective + 1e-4

    @given(small_instance())
    @settings(max_examples=15, deadline=None)
    def test_divisible_optimum_lower_bounds_preemptive(self, instance):
        divisible = minimize_max_weighted_flow(instance).objective
        preemptive = minimize_max_weighted_flow(instance, preemptive=True).objective
        assert divisible <= preemptive + 1e-6

    @given(small_instance())
    @settings(max_examples=20, deadline=None)
    def test_fluid_lower_bound_and_sequential_upper_bound(self, instance):
        optimum = minimize_max_weighted_flow(instance).objective
        fluid = max(
            instance.jobs[j].weight * instance.lower_bound_flow(j)
            for j in range(instance.num_jobs)
        )
        assert optimum >= fluid - 1e-6
        assert optimum <= instance.trivial_upper_bound_flow() + 1e-6

    @given(small_instance(), st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_scaling_all_weights_scales_the_optimum(self, instance, factor):
        base = minimize_max_weighted_flow(instance).objective
        scaled_jobs = tuple(job.with_weight(job.weight * factor) for job in instance.jobs)
        scaled_instance = Instance(
            jobs=scaled_jobs, machines=instance.machines, costs=instance.costs.copy()
        )
        scaled = minimize_max_weighted_flow(scaled_instance).objective
        assert abs(scaled - factor * base) <= 1e-4 * (1.0 + abs(scaled))

    @given(small_instance())
    @settings(max_examples=15, deadline=None)
    def test_makespan_schedule_valid_and_consistent(self, instance):
        result = minimize_makespan(instance)
        result.schedule.validate()
        assert result.schedule.makespan <= result.makespan + 1e-5
        # The makespan is at least the fluid completion of every job.
        for j in range(instance.num_jobs):
            bound = instance.jobs[j].release_date + instance.lower_bound_flow(j)
            assert result.makespan >= bound - 1e-6

    @given(small_instance(), st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_deadline_feasibility_is_monotone(self, instance, slack):
        optimum = minimize_max_weighted_flow(instance).objective
        tight = [deadline_function(job)(optimum * 0.8) for job in instance.jobs]
        loose = [deadline + slack for deadline in tight]
        tight_feasible = check_deadline_feasibility(
            instance, tight, build_schedule=False
        ).feasible
        loose_feasible = check_deadline_feasibility(
            instance, loose, build_schedule=False
        ).feasible
        # Relaxing every deadline can never destroy feasibility.
        if tight_feasible:
            assert loose_feasible
