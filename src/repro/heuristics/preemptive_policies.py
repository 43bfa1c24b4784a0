"""Preemptive single-machine-at-a-time policies: SRPT and greedy weighted flow.

Both policies re-evaluate their priorities at every event and may migrate a
job to another machine, but never run a job on two machines at the same time
(so their schedules are valid in the preemptive, non-divisible model of
Section 4.4).

* **SRPT** (shortest remaining processing time first) is the classical
  flow-time heuristic: the jobs closest to completion get the machines.
* **Greedy weighted flow** targets the paper's objective directly: the job
  whose weighted flow would degrade the fastest gets the best machine.

Both are *array-aware*: inside the event loop their rankings are computed
on the remaining-fraction vector with vectorised numpy expressions, or on
its Python-float twin over the window's metadata lists (same IEEE-754
operations in the same order as the scalar path,
followed by a stable argsort — the ordering, and hence the executed
schedule, is byte-for-byte identical to the scalar path the seed engine
drives).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..core.instance import Instance
from ..simulation.state import AllocationDecision, SimulationState
from .base import OnlineScheduler

__all__ = ["SRPTScheduler", "GreedyWeightedFlowScheduler"]


class _PriorityPreemptiveScheduler(OnlineScheduler):
    """Shared machinery: rank active jobs, give each its fastest free machine."""

    divisible = False
    array_aware = True

    def __init__(self) -> None:
        self._min_costs: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._releases: Optional[np.ndarray] = None
        self._cost_rows: Optional[List[List[float]]] = None
        self._job_lists: Optional[tuple] = None

    def reset(self, instance: Instance) -> None:
        self.rebind(instance)

    def rebind(self, instance: Instance) -> None:
        # Static per-instance vectors consumed by the array ranking path;
        # refreshed whenever the streaming window grows or compacts.  The
        # accessor is O(1) on the streaming InstanceView (zero-copy slices
        # of the window metadata) and cached on frozen Instances, so this
        # hook is constant-time in both runtimes.  The cost rows alias the
        # window's Python-float rows (mutated in place, so the cached
        # reference stays current); ``None`` on plain instances.
        self._min_costs, self._weights, self._releases = instance.job_vectors()
        self._cost_rows = getattr(instance, "costs_rows", None)
        self._job_lists = getattr(instance, "job_lists", None)

    def compact(self, instance: Instance, mapping: Dict[int, int]) -> None:
        # No index-keyed state beyond the per-instance vectors: re-derive them.
        self.rebind(instance)

    def _ranked_jobs(self, state: SimulationState) -> List[int]:
        raise NotImplementedError

    def _ranking_keys(self, state: SimulationState, active: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _rank_scalar(self, state: SimulationState, active: List[int]) -> List[int]:
        """Scalar twin of :meth:`_ranking_keys` + stable argsort.

        Runs over the streaming window's Python-float metadata lists with
        ``sorted`` — the keys are the same IEEE-754 doubles the vector path
        computes and both sorts are stable over ascending active indices,
        so the ranking (and the schedule) is identical.
        """
        raise NotImplementedError

    def _assign(self, state: SimulationState, ranked) -> AllocationDecision:
        # Ascending machine scan with a strict "<": each job takes the
        # lowest-index free machine achieving its minimum cost.  The costs
        # are read per machine row — Python floats on the streaming view
        # (``costs_rows``), row views of the ndarray elsewhere — skipping
        # both the scalar ``instance.cost`` accessor and per-element
        # float64 boxing.
        instance = state.instance
        rows = self._cost_rows
        if rows is None:
            rows = getattr(instance, "costs_rows", None)
            if rows is None:
                rows = list(instance.costs)
        free_machines = list(range(instance.num_machines))
        # Built in assignment order — the same dict exclusive_allocation
        # would produce, without the intermediate assignments mapping.
        shares: Dict[int, List] = {}
        for job_index in ranked:
            if not free_machines:
                break
            best_machine = -1
            best_cost = math.inf
            for machine_index in free_machines:
                cost = rows[machine_index][job_index]
                if cost < best_cost:
                    best_cost = cost
                    best_machine = machine_index
            if best_machine < 0 or math.isinf(best_cost):
                continue
            shares[best_machine] = [(job_index, 1.0)]
            free_machines.remove(best_machine)
        return AllocationDecision(shares=shares, all_exclusive=True)

    def decide(self, state: SimulationState) -> AllocationDecision:
        return self._assign(state, self._ranked_jobs(state))

    def decide_arrays(self, state: SimulationState) -> AllocationDecision:
        """Vectorised ranking over the event loop's remaining vector.

        ``np.argsort(kind="stable")`` on identical keys reproduces the scalar
        path's stable ``sorted`` ordering exactly (active indices ascend), so
        the decisions — and the executed schedule — are byte-identical.
        """
        if self._min_costs is None or state.remaining_vector is None:
            return self.decide(state)
        active_list = state.active if state.active is not None else state.active_jobs()
        if not active_list:
            return AllocationDecision()
        if self._job_lists is not None:
            return self._assign(state, self._rank_scalar(state, active_list))
        active = np.asarray(active_list, dtype=np.intp)
        keys = self._ranking_keys(state, active)
        ranked = active[keys.argsort(kind="stable")]
        return self._assign(state, ranked.tolist())


class SRPTScheduler(_PriorityPreemptiveScheduler):
    """Shortest remaining processing time first (preemptive)."""

    name = "srpt"

    def _ranked_jobs(self, state: SimulationState) -> List[int]:
        return sorted(state.active_jobs(), key=state.fastest_remaining_work)

    def _ranking_keys(self, state: SimulationState, active: np.ndarray) -> np.ndarray:
        return state.remaining_vector[active] * self._min_costs[active]

    def _rank_scalar(self, state: SimulationState, active: List[int]) -> List[int]:
        mins = self._job_lists[0]
        rem = state.remaining_list
        if rem is None:
            remaining = state.remaining_vector.item
            return sorted(active, key=lambda j: remaining(j) * mins[j])
        return sorted(active, key=lambda j: rem[j] * mins[j])


class GreedyWeightedFlowScheduler(_PriorityPreemptiveScheduler):
    """Largest-weighted-flow-first (preemptive).

    The priority of a job is the weighted flow it would reach if it completed
    after running alone on its fastest machine from now on:
    ``w_j (now - r_j + remaining_j)``.  Jobs that threaten the objective the
    most are served first — a natural greedy proxy for minimising the maximum
    weighted flow without solving any LP.
    """

    name = "greedy-weighted-flow"

    def _ranked_jobs(self, state: SimulationState) -> List[int]:
        def priority(job_index: int) -> float:
            job = state.instance.jobs[job_index]
            projected_flow = (
                state.time - job.release_date + state.fastest_remaining_work(job_index)
            )
            return -job.weight * projected_flow

        return sorted(state.active_jobs(), key=priority)

    def _ranking_keys(self, state: SimulationState, active: np.ndarray) -> np.ndarray:
        projected = (state.time - self._releases[active]) + (
            state.remaining_vector[active] * self._min_costs[active]
        )
        return (-self._weights[active]) * projected

    def _rank_scalar(self, state: SimulationState, active: List[int]) -> List[int]:
        mins, weights, releases = self._job_lists
        time = state.time
        rem = state.remaining_list
        if rem is None:
            remaining = state.remaining_vector.item
            return sorted(
                active,
                key=lambda j: (-weights[j])
                * ((time - releases[j]) + remaining(j) * mins[j]),
            )
        return sorted(
            active,
            key=lambda j: (-weights[j]) * ((time - releases[j]) + rem[j] * mins[j]),
        )
