"""Unit tests for the simulation state and allocation decisions."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job
from repro.exceptions import SimulationError
from repro.simulation import AllocationDecision, SimulationState


@pytest.fixture
def instance() -> Instance:
    jobs = [Job("A", 0.0, weight=2.0, size=4.0), Job("B", 3.0, weight=1.0, size=8.0)]
    costs = [[4.0, 8.0], [8.0, float("inf")]]
    return Instance.from_costs(jobs, costs)


@pytest.fixture
def state(instance) -> SimulationState:
    return SimulationState(
        instance=instance, time=5.0, next_arrival=None, active=[0, 1], remaining_list=[0.5, 1.0]
    )


class TestSimulationState:
    def test_active_jobs(self, state):
        assert state.active_jobs() == [0, 1]
        state.active.remove(0)  # the event loop updates the list in place
        assert state.active_jobs() == [1]
        state.active.clear()
        assert state.active_jobs() == []

    def test_active_jobs_is_a_copy(self, state):
        # A policy may edit what it gets without touching the loop's list.
        state.active_jobs().clear()
        assert state.active == [0, 1]

    def test_remaining_work(self, state):
        assert state.remaining_fraction(0) == 0.5
        assert state.fastest_remaining_work(0) == pytest.approx(2.0)
        state.remaining_list[0] = 0.25  # in-place advance
        assert state.remaining_fraction(0) == 0.25
        assert state.fastest_remaining_work(0) == pytest.approx(1.0)

    def test_active_and_remaining_are_required(self, instance):
        with pytest.raises(TypeError):
            SimulationState(instance=instance, time=0.0, next_arrival=None)  # type: ignore[call-arg]


class TestAllocationDecision:
    def test_valid_decision(self, state):
        decision = AllocationDecision(shares={0: [(0, 0.5), (1, 0.5)], 1: [(0, 1.0)]})
        decision.validate(state)
        rates = decision.job_rates(state)
        # Job 0: 0.5/4 on M0 + 1/8 on M1 = 0.25 ; job 1: 0.5/8.
        assert rates[0] == pytest.approx(0.25)
        assert rates[1] == pytest.approx(0.0625)

    def test_unknown_machine_rejected(self, state):
        with pytest.raises(SimulationError):
            AllocationDecision(shares={9: [(0, 1.0)]}).validate(state)

    def test_unknown_job_rejected(self, state):
        with pytest.raises(SimulationError):
            AllocationDecision(shares={0: [(7, 1.0)]}).validate(state)

    def test_inactive_job_rejected(self, state):
        state.active.remove(1)
        with pytest.raises(SimulationError):
            AllocationDecision(shares={0: [(1, 1.0)]}).validate(state)

    def test_overcommitted_machine_rejected(self, state):
        with pytest.raises(SimulationError):
            AllocationDecision(shares={0: [(0, 0.7), (1, 0.7)]}).validate(state)

    def test_forbidden_pair_rejected(self, state):
        with pytest.raises(SimulationError):
            AllocationDecision(shares={1: [(1, 1.0)]}).validate(state)

    def test_nonpositive_share_rejected(self, state):
        with pytest.raises(SimulationError):
            AllocationDecision(shares={0: [(0, 0.0)]}).validate(state)

    def test_wake_up_in_the_past_rejected(self, state):
        with pytest.raises(SimulationError):
            AllocationDecision(shares={}, wake_up_at=1.0).validate(state)
