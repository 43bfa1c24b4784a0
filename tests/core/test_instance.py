"""Unit tests for the Instance model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Instance, Job, Machine, Platform
from repro.exceptions import InvalidInstanceError


class TestConstruction:
    def test_from_costs_sorts_jobs_by_release_date(self):
        jobs = [Job("late", 5.0), Job("early", 1.0)]
        costs = [[10.0, 20.0]]
        instance = Instance.from_costs(jobs, costs)
        assert [job.name for job in instance.jobs] == ["early", "late"]
        # Columns must be permuted together with the jobs.
        assert instance.cost(0, 0) == 20.0
        assert instance.cost(0, 1) == 10.0

    def test_from_costs_dimension_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_costs([Job("J", 0.0)], [[1.0, 2.0]])

    def test_from_costs_machine_count_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_costs([Job("J", 0.0)], [[1.0]], machines=[Machine("A"), Machine("B")])

    def test_from_platform_builds_restricted_costs(self, restricted_instance):
        instance = restricted_instance
        # Machine "fast" hosts only sprot: pdb jobs must be forbidden there.
        fast = instance.machine_index("fast")
        r2 = instance.job_index("r2")
        assert math.isinf(instance.cost(fast, r2))
        # r1 (size 4) on fast (cycle 0.5) -> 2 seconds.
        r1 = instance.job_index("r1")
        assert instance.cost(fast, r1) == pytest.approx(2.0)

    def test_job_unprocessable_everywhere_rejected(self):
        jobs = [Job("J", 0.0)]
        with pytest.raises(InvalidInstanceError):
            Instance.from_costs(jobs, [[float("inf")]])

    def test_nan_costs_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_costs([Job("J", 0.0)], [[float("nan")]])

    def test_nonpositive_costs_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_costs([Job("J", 0.0)], [[0.0]])

    def test_unsorted_direct_construction_rejected(self):
        jobs = (Job("a", 5.0), Job("b", 1.0))
        with pytest.raises(InvalidInstanceError):
            Instance(jobs=jobs, machines=(Machine("M"),), costs=np.array([[1.0, 1.0]]))

    def test_empty_jobs_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance.from_costs([], [[]])


class TestAccessors:
    def test_dimensions(self, tiny_instance):
        assert tiny_instance.num_jobs == 3
        assert tiny_instance.num_machines == 2

    def test_release_dates_and_weights(self, tiny_instance):
        assert tiny_instance.release_dates == [0.0, 1.0, 2.5]
        assert tiny_instance.weights == [1.0, 2.0, 1.0]

    def test_index_lookups(self, tiny_instance):
        assert tiny_instance.job_index("J2") == 1
        assert tiny_instance.machine_index("M1") == 1
        with pytest.raises(KeyError):
            tiny_instance.job_index("nope")
        with pytest.raises(KeyError):
            tiny_instance.machine_index("nope")

    def test_eligibility(self, restricted_instance):
        r2 = restricted_instance.job_index("r2")
        eligible = np.flatnonzero(np.isfinite(restricted_instance.costs[:, r2]))
        names = [restricted_instance.machines[i].name for i in eligible]
        assert names == ["slow", "medium"]
        slow = restricted_instance.machine_index("slow")
        assert set(np.flatnonzero(np.isfinite(restricted_instance.costs[slow]))) == {0, 1, 2, 3}

    def test_describe_mentions_forbidden_pairs(self, restricted_instance):
        text = restricted_instance.describe()
        assert "4 jobs" in text and "3 machines" in text


class TestDerivedQuantities:
    def test_min_cost(self, tiny_instance):
        assert tiny_instance.min_cost(0) == 3.0
        assert tiny_instance.min_cost(2) == 2.0

    def test_aggregate_rate_and_lower_bound(self, tiny_instance):
        # Job J1: costs 3 and 6 -> aggregate rate 1/3 + 1/6 = 1/2.
        assert tiny_instance.aggregate_rate(0) == pytest.approx(0.5)
        assert tiny_instance.lower_bound_flow(0) == pytest.approx(2.0)

    def test_aggregate_rate_ignores_forbidden_machines(self, restricted_instance):
        r1 = restricted_instance.job_index("r1")
        # r1 runs on fast (cost 2) and slow (cost 8): rate = 1/2 + 1/8.
        assert restricted_instance.aggregate_rate(r1) == pytest.approx(0.625)

    def test_trivial_upper_bound_dominates_optimum(self, tiny_instance):
        from repro.core import minimize_max_weighted_flow

        upper = tiny_instance.trivial_upper_bound_flow()
        optimum = minimize_max_weighted_flow(tiny_instance).objective
        assert upper >= optimum - 1e-9



class TestSerialisation:
    def test_round_trip(self, restricted_instance):
        data = restricted_instance.to_dict()
        rebuilt = Instance.from_dict(data)
        assert rebuilt.num_jobs == restricted_instance.num_jobs
        assert rebuilt.num_machines == restricted_instance.num_machines
        np.testing.assert_allclose(
            np.where(np.isfinite(rebuilt.costs), rebuilt.costs, -1.0),
            np.where(np.isfinite(restricted_instance.costs), restricted_instance.costs, -1.0),
        )
        assert [job.name for job in rebuilt.jobs] == [
            job.name for job in restricted_instance.jobs
        ]

    def test_infinite_costs_serialised_as_none(self, restricted_instance):
        data = restricted_instance.to_dict()
        flat = [cell for row in data["costs"] for cell in row]
        assert None in flat


@pytest.fixture
def restricted_instance():
    machines = [
        Machine("fast", cycle_time=0.5, databanks=frozenset({"sprot"})),
        Machine("slow", cycle_time=2.0, databanks=frozenset({"sprot", "pdb"})),
        Machine("medium", cycle_time=1.0, databanks=frozenset({"pdb"})),
    ]
    jobs = [
        Job("r1", 0.0, weight=1.0, size=4.0, databanks=frozenset({"sprot"})),
        Job("r2", 1.0, weight=1.0, size=6.0, databanks=frozenset({"pdb"})),
        Job("r3", 2.0, weight=2.0, size=2.0, databanks=frozenset({"sprot"})),
        Job("r4", 2.0, weight=1.0, size=8.0, databanks=frozenset({"pdb"})),
    ]
    return Instance.from_platform(jobs, Platform(machines))
