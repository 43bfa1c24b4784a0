"""Unit tests for the deadline-driven (EDF-on-induced-deadlines) policy."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job, minimize_max_weighted_flow
from repro.heuristics import DeadlineDrivenScheduler, FIFOScheduler
from repro.simulation import simulate
from repro.workload import random_restricted_instance


class TestDeadlineDriven:
    def test_unknown_backend_is_rejected_without_lp_targets(self):
        with pytest.raises(ValueError, match="unknown LP backend 'highs'"):
            DeadlineDrivenScheduler(backend="highs")

    def test_completes_all_jobs_with_valid_schedule(self):
        instance = random_restricted_instance(10, 3, seed=3, num_databanks=3)
        result = simulate(instance, DeadlineDrivenScheduler())
        result.schedule.validate()
        assert len(result.completion_times) == instance.num_jobs

    def test_target_grows_monotonically(self, tiny_instance):
        scheduler = DeadlineDrivenScheduler()
        simulate(tiny_instance, scheduler)
        assert scheduler._target > 0

    def test_heavy_jobs_get_priority(self):
        # Same release/size, very different weights: the heavy job has the
        # earlier induced deadline, so it must finish first.
        jobs = [Job("light", 0.0, weight=0.2), Job("heavy", 0.0, weight=5.0)]
        costs = [[4.0, 4.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, DeadlineDrivenScheduler())
        assert result.completion_times[1] < result.completion_times[0]

    def test_never_beats_offline_optimum(self):
        instance = random_restricted_instance(8, 3, seed=9, num_databanks=2, stretch_weights=True)
        optimum = minimize_max_weighted_flow(instance).objective
        result = simulate(instance, DeadlineDrivenScheduler())
        assert result.max_weighted_flow >= optimum - 1e-6

    def test_usually_improves_on_fifo_for_weighted_flow(self):
        # Across a few seeds the deadline-driven policy should not lose to
        # FIFO on the objective it explicitly targets (geometric mean).
        import numpy as np

        ratios = []
        for seed in (1, 5, 11, 19):
            instance = random_restricted_instance(
                10, 3, seed=seed, num_databanks=3, stretch_weights=True
            )
            edf = simulate(instance, DeadlineDrivenScheduler()).max_weighted_flow
            fifo = simulate(instance, FIFOScheduler()).max_weighted_flow
            ratios.append(edf / fifo)
        assert float(np.exp(np.mean(np.log(ratios)))) <= 1.05

    def test_respects_restricted_availability(self):
        jobs = [Job("A", 0.0, databanks=frozenset({"x"})), Job("B", 0.0)]
        costs = [[float("inf"), 2.0], [3.0, 3.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, DeadlineDrivenScheduler())
        result.schedule.validate()
