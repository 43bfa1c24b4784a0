"""Unit tests for the random instance generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workload import (
    ArrivalProcess,
    random_restricted_instance,
    random_unrelated_instance,
)


class TestArrivalProcesses:
    def test_poisson_arrivals_are_increasing(self):
        arrivals = ArrivalProcess(kind="poisson", rate=2.0).sample(50, np.random.default_rng(1))
        assert len(arrivals) == 50
        assert all(later >= earlier for earlier, later in zip(arrivals, arrivals[1:]))

    def test_poisson_mean_gap_matches_rate(self):
        arrivals = ArrivalProcess(kind="poisson", rate=4.0).sample(2000, np.random.default_rng(2))
        gaps = np.diff([0.0] + arrivals)
        assert np.mean(gaps) == pytest.approx(0.25, rel=0.1)

    def test_uniform_arrivals_respect_horizon(self):
        arrivals = ArrivalProcess(kind="uniform", horizon=5.0).sample(30, np.random.default_rng(3))
        assert all(0.0 <= value <= 5.0 for value in arrivals)
        assert arrivals == sorted(arrivals)

    def test_batch_process(self):
        process = ArrivalProcess(kind="batch")
        assert process.sample(4, np.random.default_rng(0)) == [0.0] * 4

    def test_invalid_process_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError):
            ArrivalProcess(kind="poisson", rate=0.0).sample(3, rng)
        with pytest.raises(WorkloadError):
            ArrivalProcess(kind="unknown").sample(3, rng)
        with pytest.raises(WorkloadError):
            ArrivalProcess().sample(0, rng)


class TestUnrelatedGenerator:
    def test_dimensions_and_validity(self):
        instance = random_unrelated_instance(12, 4, seed=1)
        assert instance.num_jobs == 12
        assert instance.num_machines == 4

    def test_forbidden_pairs_respect_probability_and_feasibility(self):
        instance = random_unrelated_instance(30, 5, seed=2, forbidden_probability=0.5)
        # Every job keeps at least one eligible machine (enforced by the generator).
        assert np.isfinite(instance.costs).any(axis=0).all()
        # And a substantial share of pairs is forbidden.
        forbidden = int(np.sum(~np.isfinite(instance.costs)))
        assert forbidden > 0

    def test_costs_within_range(self):
        instance = random_unrelated_instance(10, 3, seed=3, cost_range=(2.0, 4.0))
        finite = instance.costs[np.isfinite(instance.costs)]
        assert finite.min() >= 2.0 and finite.max() <= 4.0

    def test_deterministic_for_seed(self):
        first = random_unrelated_instance(8, 3, seed=7)
        second = random_unrelated_instance(8, 3, seed=7)
        np.testing.assert_array_equal(first.costs, second.costs)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            random_unrelated_instance(0, 3)
        with pytest.raises(WorkloadError):
            random_unrelated_instance(3, 3, forbidden_probability=1.0)


class TestRestrictedGenerator:
    def test_costs_follow_uniform_model(self):
        instance = random_restricted_instance(10, 4, seed=4, num_databanks=3)
        for j, job in enumerate(instance.jobs):
            for i, machine in enumerate(instance.machines):
                cost = instance.cost(i, j)
                if math.isfinite(cost):
                    assert cost == pytest.approx(job.size * machine.cycle_time)

    def test_stretch_weights(self):
        instance = random_restricted_instance(8, 3, seed=5, stretch_weights=True)
        for job in instance.jobs:
            assert job.weight == pytest.approx(1.0 / job.size)

    def test_every_databank_hosted(self):
        instance = random_restricted_instance(10, 3, seed=6, num_databanks=5, replication=0.2)
        assert np.isfinite(instance.costs).any(axis=0).all()

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            random_restricted_instance(5, 2, num_databanks=0)
        with pytest.raises(WorkloadError):
            random_restricted_instance(5, 2, replication=1.5)


