"""Unit tests for the per-job fairness analysis."""

from __future__ import annotations

import pytest

from repro.analysis import fairness_report, jain_index
from repro.core import Instance, Job, Schedule, minimize_max_stretch
from repro.exceptions import WorkloadError
from repro.heuristics import FIFOScheduler
from repro.simulation import simulate
from repro.workload import random_restricted_instance


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_maximum_unfairness(self):
        # One job gets everything: index tends to 1/n.
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_scale_invariance(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(jain_index([10.0, 20.0, 30.0]))

    def test_input_validation(self):
        with pytest.raises(WorkloadError):
            jain_index([])
        with pytest.raises(WorkloadError):
            jain_index([1.0, -1.0])

    def test_all_zero_values(self):
        assert jain_index([0.0, 0.0]) == 1.0


class TestFairnessReport:
    @pytest.fixture
    def instance(self):
        jobs = [Job("short", 0.0, size=2.0), Job("long", 0.0, size=8.0)]
        costs = [[2.0, 8.0]]
        return Instance.from_costs(jobs, costs)

    def test_report_values(self, instance):
        # Run short then long on the single machine.
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 2.0, 1.0)
        schedule.add_piece(1, 0, 2.0, 10.0, 1.0)
        report = fairness_report(schedule)
        assert report.stretches == [pytest.approx(1.0), pytest.approx(10.0 / 8.0)]
        assert report.max_stretch == pytest.approx(1.25)
        assert 0.9 < report.jain <= 1.0
        assert report.starvation_ratio >= 1.0
        assert len(report.weighted_flows) == 2

    def test_incomplete_schedule_rejected(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 2.0, 1.0)
        with pytest.raises(WorkloadError):
            fairness_report(schedule)

    def test_stretch_optimal_schedule_is_fairer_than_fifo(self):
        instance = random_restricted_instance(
            8, 3, seed=2, num_databanks=2, stretch_weights=True
        )
        optimal = minimize_max_stretch(instance).schedule
        fifo = simulate(instance, FIFOScheduler()).schedule
        optimal_report = fairness_report(optimal)
        fifo_report = fairness_report(fifo)
        assert optimal_report.max_stretch <= fifo_report.max_stretch + 1e-6


class TestFairnessEdgeCases:
    def test_starvation_ratio_is_infinite_when_median_stretch_is_zero(self):
        # Jobs with zero-size work complete instantly: stretch 0 for the
        # median job makes the ratio degenerate, reported as inf.
        from repro.analysis.fairness import FairnessReport

        report = FairnessReport(
            stretches=[0.0, 0.0, 5.0],
            weighted_flows=[0.0, 0.0, 5.0],
            max_stretch=5.0,
            mean_stretch=5.0 / 3.0,
            median_stretch=0.0,
            jain=jain_index([0.0, 0.0, 5.0]),
            starvation_ratio=float("inf"),
        )
        assert report.starvation_ratio == float("inf")
        assert len(report.weighted_flows) == 3

    def test_weighted_flows_follow_job_weights(self):
        from repro.core import Job, Instance

        jobs = [Job("light", 0.0, weight=1.0), Job("heavy", 0.0, weight=3.0)]
        costs = [[2.0, 2.0]]
        instance = Instance.from_costs(jobs, costs)
        from repro.core import Schedule

        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 2.0, 1.0)
        schedule.add_piece(1, 0, 2.0, 4.0, 1.0)
        report = fairness_report(schedule)
        # heavy finishes at 4 with weight 3 -> weighted flow 12; light 2.
        assert report.weighted_flows == [pytest.approx(2.0), pytest.approx(12.0)]
        assert (report.stretches[1], report.weighted_flows[1]) == (
            pytest.approx(2.0),
            pytest.approx(12.0),
        )

