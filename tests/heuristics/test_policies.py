"""Unit tests for the individual on-line policies."""

from __future__ import annotations

import math

import pytest

from repro.core import Instance, Job
from repro.heuristics import (
    FIFOScheduler,
    GreedyWeightedFlowScheduler,
    MCTScheduler,
    RoundRobinScheduler,
    SPTScheduler,
    SRPTScheduler,
    available_schedulers,
    make_scheduler,
)
from repro.simulation import simulate


@pytest.fixture
def hetero_instance() -> Instance:
    jobs = [
        Job("short", 0.0, weight=1.0),
        Job("long", 0.0, weight=1.0),
        Job("late", 4.0, weight=1.0),
    ]
    costs = [
        [1.0, 10.0, 2.0],
        [2.0, 5.0, 4.0],
    ]
    return Instance.from_costs(jobs, costs)


class TestRegistry:
    def test_all_registered_policies_instantiate(self):
        for name in available_schedulers():
            scheduler = make_scheduler(name)
            assert scheduler.name
            assert isinstance(scheduler.divisible, bool)

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_scheduler("does-not-exist")

    def test_expected_policies_present(self):
        names = available_schedulers()
        for expected in ("fifo", "mct", "spt", "srpt", "round-robin", "online-offline"):
            assert expected in names


class TestListSchedulers:
    def test_fifo_keeps_arrival_order_on_single_machine(self):
        jobs = [Job("first", 0.0), Job("second", 0.1), Job("third", 0.2)]
        costs = [[5.0, 1.0, 1.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        completions = result.completion_times
        assert completions[0] < completions[1] < completions[2]

    def test_spt_prefers_short_jobs(self):
        jobs = [Job("long", 0.0), Job("short", 0.0)]
        costs = [[10.0, 1.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, SPTScheduler())
        assert result.completion_times[1] < result.completion_times[0]

    def test_list_schedulers_never_preempt(self, hetero_instance):
        for scheduler in (FIFOScheduler(), SPTScheduler(), MCTScheduler()):
            result = simulate(hetero_instance, scheduler)
            assert result.num_preemptions == 0

    def test_fifo_respects_databank_restrictions(self):
        jobs = [Job("A", 0.0, databanks=frozenset({"x"})), Job("B", 0.0)]
        costs = [[float("inf"), 2.0], [3.0, 3.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, FIFOScheduler())
        result.schedule.validate()
        for piece in result.schedule.pieces:
            assert math.isfinite(instance.cost(piece.machine_index, piece.job_index))


class TestMCT:
    def test_mct_balances_load(self):
        # Two equal machines, two equal jobs released together: MCT puts one
        # job on each machine.
        jobs = [Job("a", 0.0), Job("b", 0.0)]
        costs = [[4.0, 4.0], [4.0, 4.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, MCTScheduler())
        machines_used = {piece.machine_index for piece in result.schedule.pieces}
        assert machines_used == {0, 1}
        assert result.makespan == pytest.approx(4.0, abs=1e-6)

    def test_mct_accounts_for_backlog(self):
        # Machine 0 is faster but gets the first job; the second job should go
        # to machine 1 because machine 0's backlog would delay it.
        jobs = [Job("a", 0.0), Job("b", 0.0)]
        costs = [[2.0, 3.0], [5.0, 4.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, MCTScheduler())
        piece_machines = {
            instance.jobs[piece.job_index].name: piece.machine_index
            for piece in result.schedule.pieces
        }
        assert piece_machines["a"] == 0
        assert piece_machines["b"] == 1


class TestPreemptivePolicies:
    def test_srpt_prioritises_short_remaining_work(self):
        jobs = [Job("long", 0.0), Job("short", 1.0)]
        costs = [[10.0, 1.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, SRPTScheduler())
        # The short job arriving at t=1 preempts the long one and finishes first.
        assert result.completion_times[1] < result.completion_times[0]
        assert result.num_preemptions >= 1

    def test_greedy_weighted_flow_prioritises_heavy_jobs(self):
        jobs = [Job("light", 0.0, weight=0.1), Job("heavy", 0.0, weight=10.0)]
        costs = [[4.0, 4.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, GreedyWeightedFlowScheduler())
        assert result.completion_times[1] < result.completion_times[0]

    def test_preemptive_policies_produce_valid_schedules(self, hetero_instance):
        for scheduler in (SRPTScheduler(), GreedyWeightedFlowScheduler()):
            result = simulate(hetero_instance, scheduler)
            result.schedule.validate()


class TestRoundRobin:
    def test_round_robin_shares_every_eligible_machine(self, hetero_instance):
        result = simulate(hetero_instance, RoundRobinScheduler())
        result.schedule.validate()
        # All jobs complete, and the schedule is divisible.
        assert result.schedule.divisible is True
        assert set(result.completion_times) == {0, 1, 2}

    def test_round_robin_ignores_forbidden_machines(self):
        jobs = [Job("A", 0.0, databanks=frozenset({"x"})), Job("B", 0.0)]
        costs = [[float("inf"), 2.0], [3.0, 3.0]]
        instance = Instance.from_costs(jobs, costs)
        result = simulate(instance, RoundRobinScheduler())
        result.schedule.validate()
