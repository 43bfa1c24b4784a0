"""Unit tests for the analytical lower bound on the max weighted flow."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job, max_weighted_flow_lower_bound, minimize_max_weighted_flow
from repro.workload import random_restricted_instance


class TestFluidBound:
    def test_single_job_two_machines(self, single_job_instance):
        # Costs 4 and 12: aggregate rate 1/3 per second -> flow at least 3.
        assert single_job_instance.lower_bound_flow(0) == pytest.approx(3.0)

    def test_release_date_is_not_part_of_the_flow(self):
        jobs = [Job("late", 10.0)]
        instance = Instance.from_costs(jobs, [[2.0]])
        assert instance.lower_bound_flow(0) == pytest.approx(2.0)


class TestMaxWeightedFlowBound:
    @pytest.mark.parametrize("seed", range(4))
    def test_bound_never_exceeds_optimum(self, seed):
        instance = random_restricted_instance(6, 3, seed=seed, num_databanks=2)
        optimum = minimize_max_weighted_flow(instance).objective
        assert max_weighted_flow_lower_bound(instance) <= optimum + 1e-6

    def test_bound_is_tight_for_isolated_jobs(self):
        # Jobs so far apart they never interact: the fluid bound is exact.
        jobs = [Job("a", 0.0, weight=2.0), Job("b", 1000.0, weight=1.0)]
        costs = [[4.0, 6.0], [4.0, 6.0]]
        instance = Instance.from_costs(jobs, costs)
        optimum = minimize_max_weighted_flow(instance).objective
        assert max_weighted_flow_lower_bound(instance) == pytest.approx(optimum, abs=1e-6)


