"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job
from repro.exceptions import SimulationError
from repro.heuristics import FIFOScheduler, MCTScheduler, RoundRobinScheduler
from repro.heuristics.base import OnlineScheduler
from repro.simulation import AllocationDecision, simulate


@pytest.fixture
def two_job_instance() -> Instance:
    jobs = [Job("A", 0.0, weight=1.0), Job("B", 1.0, weight=1.0)]
    costs = [[2.0, 3.0], [4.0, 6.0]]
    return Instance.from_costs(jobs, costs)


class TestEngineBasics:
    def test_fifo_single_machine_timeline(self):
        jobs = [Job("A", 0.0), Job("B", 0.0)]
        costs = [[2.0, 3.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        result.schedule.validate()
        assert result.completion_times[0] == pytest.approx(2.0)
        assert result.completion_times[1] == pytest.approx(5.0)
        assert result.makespan == pytest.approx(5.0)

    def test_all_jobs_complete_and_schedule_valid(self, two_job_instance):
        for scheduler in (FIFOScheduler(), MCTScheduler(), RoundRobinScheduler()):
            result = simulate(two_job_instance, scheduler)
            result.schedule.validate()
            assert set(result.completion_times) == {0, 1}
            assert all(value is not None for value in result.completion_times.values())

    def test_arrival_events_are_recorded(self, two_job_instance):
        result = simulate(two_job_instance, FIFOScheduler())
        kinds = [event.kind for event in result.events]
        assert kinds.count("arrival") == 2
        assert kinds.count("completion") == 2

    def test_no_processing_before_release(self, two_job_instance):
        result = simulate(two_job_instance, MCTScheduler())
        for piece in result.schedule.pieces:
            release = two_job_instance.jobs[piece.job_index].release_date
            assert piece.start >= release - 1e-9

    def test_completion_times_match_schedule(self, two_job_instance):
        result = simulate(two_job_instance, MCTScheduler())
        for job_index, completion in result.completion_times.items():
            assert result.schedule.completion_time(job_index) == pytest.approx(
                completion, abs=1e-6
            )

    def test_idle_gap_when_no_job_available(self):
        jobs = [Job("A", 0.0), Job("B", 100.0)]
        costs = [[1.0, 1.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        assert result.completion_times[1] == pytest.approx(101.0)

    def test_round_robin_time_sharing_produces_valid_pieces(self):
        jobs = [Job("A", 0.0), Job("B", 0.0), Job("C", 0.0)]
        costs = [[3.0, 3.0, 3.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, RoundRobinScheduler())
        result.schedule.validate()
        # Equal sharing of one machine among three unit-work jobs: everything
        # finishes at t = 9.
        assert result.makespan == pytest.approx(9.0, abs=1e-6)


class TestEngineErrorHandling:
    def test_lazy_policy_triggers_error(self, two_job_instance):
        class LazyScheduler(OnlineScheduler):
            name = "lazy"

            def decide(self, state):
                return AllocationDecision(shares={})

        with pytest.raises(SimulationError):
            simulate(two_job_instance, LazyScheduler())

    def test_invalid_allocation_rejected(self, two_job_instance):
        class BadScheduler(OnlineScheduler):
            name = "bad"

            def decide(self, state):
                return AllocationDecision(shares={0: [(0, 2.0)]})  # 200% share

        with pytest.raises(SimulationError):
            simulate(two_job_instance, BadScheduler())

    def test_event_budget_guard(self, two_job_instance):
        class DitheringScheduler(OnlineScheduler):
            name = "dithering"

            def decide(self, state):
                # Keeps asking to be woken up immediately without running anything
                # on machine 1 and only a crumb on machine 0.
                return AllocationDecision(
                    shares={0: [(state.active_jobs()[0], 1.0)]},
                    wake_up_at=state.time + 1e-9,
                )

        # Two jobs: the budget is 50 * 2 + 1000 events.
        with pytest.raises(SimulationError, match=r"event budget \(1100\)"):
            simulate(two_job_instance, DitheringScheduler())


class TestClockExactness:
    """Regression tests: the clock snaps to event times instead of drifting.

    The engine used to advance with ``time = time + window``; re-rounding the
    ``horizon - time`` subtraction drifted the clock by one ulp per event, so
    arrival events no longer coincided exactly with the release dates that
    caused them, and degenerate zero-width windows added ``_MIN_STEP`` dust
    to completion times.
    """

    def test_arrival_events_at_exact_release_dates(self):
        # 0.28 + (2.36 - 0.28) == 2.3600000000000003 != 2.36: the old
        # accumulate-the-window update recorded the (coincident) arrivals at
        # the drifted clock value.
        jobs = [Job("A", 0.28), Job("B", 2.36), Job("C", 2.36)]
        costs = [[3.0, 0.5, 0.25]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        arrivals = [event for event in result.events if event.kind == "arrival"]
        assert len(arrivals) == 3
        for event in arrivals:
            assert event.time == instance.jobs[event.job_index].release_date

    def test_completion_times_do_not_accumulate_dust(self):
        jobs = [Job("A", 0.28), Job("B", 2.36), Job("C", 2.36)]
        costs = [[3.0, 0.5, 0.25]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        result.schedule.validate()
        # FIFO on one machine: A runs 0.28->3.28, then B and C back to back.
        assert result.completion_times[0] == 3.28
        assert result.completion_times[1] == 3.78
        assert result.completion_times[2] == pytest.approx(4.03, abs=1e-12)

    def test_completion_coinciding_with_arrival_is_exact(self):
        # A's completion lands exactly on B's release date (0.1 + 0.2 vs the
        # literal 0.3 differ in the last ulp); both events must be processed
        # at the exact arrival time, leaving no sub-ulp leftover work.
        jobs = [Job("A", 0.1), Job("B", 0.3)]
        costs = [[0.2, 0.1]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        assert result.completion_times[0] == 0.3
        assert result.completion_times[1] == 0.4


class TestPreemptionAccounting:
    def test_fifo_has_no_preemptions(self, two_job_instance):
        result = simulate(two_job_instance, FIFOScheduler())
        assert result.num_preemptions == 0

    def test_explicit_preemption_is_counted(self):
        # A policy that switches machine assignment when the second job arrives.
        class SwitchingScheduler(OnlineScheduler):
            name = "switching"

            def decide(self, state):
                active = state.active_jobs()
                if len(active) == 1:
                    return AllocationDecision(shares={0: [(active[0], 1.0)]})
                # When both jobs are active, job 1 takes machine 0 and job 0 moves to machine 1.
                return AllocationDecision(shares={0: [(1, 1.0)], 1: [(0, 1.0)]})

        jobs = [Job("A", 0.0), Job("B", 1.0)]
        costs = [[4.0, 4.0], [4.0, 4.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, SwitchingScheduler())
        result.schedule.validate()
        assert result.num_preemptions >= 1
