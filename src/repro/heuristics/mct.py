"""Minimum Completion Time (MCT) — the paper's explicit baseline.

MCT is the classical on-line heuristic the paper compares against in its
preliminary simulations (Section 5): when a job arrives, it is immediately and
irrevocably assigned to the machine on which it would complete the earliest,
taking into account the work already queued on each machine.  Machines then
process their local queue in assignment order, without preemption and without
dividing jobs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

from ..core.instance import Instance
from ..simulation.state import AllocationDecision, SimulationState
from .base import OnlineScheduler, exclusive_allocation

__all__ = ["MCTScheduler"]


class MCTScheduler(OnlineScheduler):
    """Minimum Completion Time list scheduling (non-preemptive, non-divisible)."""

    name = "mct"
    divisible = False

    def __init__(self) -> None:
        self._queues: Dict[int, List[int]] = {}
        self._assigned: set = set()

    def reset(self, instance: Instance) -> None:
        self._queues = {i: [] for i in range(instance.num_machines)}
        self._assigned = set()

    def rebind(self, instance: Instance) -> None:
        # Queues and assignments are index-keyed and window growth keeps
        # existing indices stable; new arrivals are routed by decide(), so
        # there is nothing to refresh.  (_queues lazily grows machine keys in
        # reset() only, but machines never change mid-stream.)
        return None

    def compact(self, instance: Instance, mapping: Dict[int, int]) -> None:
        # Assignments are irrevocable: remap the queues so compaction never
        # re-routes a job (completed jobs simply drop out of their queue).
        self._queues = {
            machine: [mapping[job] for job in queue if job in mapping]
            for machine, queue in self._queues.items()
        }
        self._assigned = {mapping[job] for job in self._assigned if job in mapping}

    # ------------------------------------------------------------------ #
    def _machine_backlog(
        self, state: SimulationState, machine_index: int, active: Set[int]
    ) -> float:
        """Remaining work (seconds) queued on a machine, including the running job.

        A queued job is finished exactly when it has left the active set.
        """
        backlog = 0.0
        for job_index in self._queues[machine_index]:
            if job_index not in active:
                continue
            backlog += state.remaining_fraction(job_index) * state.instance.cost(
                machine_index, job_index
            )
        return backlog

    def _assign_new_jobs(self, state: SimulationState, active: Set[int]) -> None:
        """Assign every newly arrived job to its minimum-completion-time machine."""
        instance = state.instance
        for job_index in state.active_jobs():
            if job_index in self._assigned:
                continue
            best_machine = None
            best_completion = math.inf
            for machine_index in range(instance.num_machines):
                cost = instance.cost(machine_index, job_index)
                if math.isinf(cost):
                    continue
                backlog = self._machine_backlog(state, machine_index, active)
                completion = state.time + backlog + cost
                if completion < best_completion:
                    best_completion = completion
                    best_machine = machine_index
            if best_machine is None:
                # No machine can run the job; leave it unassigned (the engine
                # will raise if this persists, which is the correct signal for
                # an instance whose databank is nowhere replicated).
                continue
            self._queues[best_machine].append(job_index)
            self._assigned.add(job_index)

    # ------------------------------------------------------------------ #
    def decide(self, state: SimulationState) -> AllocationDecision:
        active = set(state.active_jobs())
        self._assign_new_jobs(state, active)
        assignments: Dict[int, int] = {}
        for machine_index, queue in self._queues.items():
            # Drop finished jobs from the head of the queue, then run the head.
            while queue and queue[0] not in active:
                queue.pop(0)
            if queue:
                assignments[machine_index] = queue[0]
        return exclusive_allocation(assignments)
