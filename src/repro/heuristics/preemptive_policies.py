"""Preemptive single-machine-at-a-time policies: SRPT and greedy weighted flow.

Both policies re-evaluate their priorities at every event and may migrate a
job to another machine, but never run a job on two machines at the same time
(so their schedules are valid in the preemptive, non-divisible model of
Section 4.4).

* **SRPT** (shortest remaining processing time first) is the classical
  flow-time heuristic: the jobs closest to completion get the machines.
* **Greedy weighted flow** targets the paper's objective directly: the job
  whose weighted flow would degrade the fastest gets the best machine.

Both rank the active jobs with one stable ``sorted`` over the instance's
``job_lists`` (fastest costs, weights, release dates as Python floats) and
the state's ``remaining_list``, the one copy of the remaining work.  They
then hand each job its fastest free machine
(:func:`~repro.heuristics.base.fastest_free_assignment`), which walks the
job's machine preference order (``machine_orders``, recorded when the job
enters the window) instead of scanning the cost rows.  The full sort stays: ``heapq.nsmallest`` over only the prefix that fills the
machines measured 2–3× slower than ``sorted`` at 8–80 active jobs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.instance import Instance
from ..simulation.state import AllocationDecision, SimulationState
from .base import OnlineScheduler, fastest_free_assignment

__all__ = ["SRPTScheduler", "GreedyWeightedFlowScheduler"]

JobLists = Tuple[List[float], List[float], List[float]]


class _PriorityPreemptiveScheduler(OnlineScheduler):
    """Shared machinery: rank active jobs, give each its fastest free machine."""

    divisible = False

    def rebind(self, instance: Instance) -> None:
        # No per-instance state: the ranking reads the instance's job lists
        # at each decision.
        return None

    def compact(self, instance: Instance, mapping: Dict[int, int]) -> None:
        # No index-keyed state survives a decision.
        return None

    def _rank(self, state: SimulationState, active: List[int], job_lists: JobLists) -> List[int]:
        """``active`` in priority order (a stable sort over ascending indices)."""
        raise NotImplementedError

    def decide(self, state: SimulationState) -> AllocationDecision:
        instance = state.instance
        ranked = self._rank(state, state.active_jobs(), instance.job_lists)
        return fastest_free_assignment(instance, ranked)


class SRPTScheduler(_PriorityPreemptiveScheduler):
    """Shortest remaining processing time first (preemptive)."""

    name = "srpt"

    def _rank(self, state: SimulationState, active: List[int], job_lists: JobLists) -> List[int]:
        mins = job_lists[0]
        remaining = state.remaining_list
        return sorted(active, key=lambda j: remaining[j] * mins[j])


class GreedyWeightedFlowScheduler(_PriorityPreemptiveScheduler):
    """Largest-weighted-flow-first (preemptive).

    The priority of a job is the weighted flow it would reach if it completed
    after running alone on its fastest machine from now on:
    ``w_j (now - r_j + remaining_j)``.  Jobs that threaten the objective the
    most are served first — a natural greedy proxy for minimising the maximum
    weighted flow without solving any LP.
    """

    name = "greedy-weighted-flow"

    def _rank(self, state: SimulationState, active: List[int], job_lists: JobLists) -> List[int]:
        mins, weights, releases = job_lists
        time = state.time
        remaining = state.remaining_list
        return sorted(
            active,
            key=lambda j: (-weights[j]) * ((time - releases[j]) + remaining[j] * mins[j]),
        )
