"""Simulation state shared between the discrete-event engine and the schedulers.

The event loop (:mod:`repro.simulation.stream`) advances virtual time between
*events* (job arrivals, job completions, scheduler wake-ups).  At every event
it hands the scheduling policy a read-only :class:`SimulationState` and gets
back an :class:`AllocationDecision`: the machine shares to apply until the
next event, plus an optional wake-up request.

The share model is the divisible-load model of the paper: during a window a
machine ``i`` may devote a fraction ``s`` of its time to job ``j``, making the
job progress at rate ``s / c[i, j]`` (fraction of the job per second).
Non-divisible policies simply return one job per machine with share 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.instance import Instance
from ..exceptions import SimulationError

__all__ = ["SimulationState", "AllocationDecision", "MachineShare"]

#: A machine's allocation: list of ``(job_index, share)`` pairs, shares summing to at most 1.
MachineShare = List[Tuple[int, float]]


@dataclass
class SimulationState:
    """Snapshot handed to the scheduling policy at every event.

    The event loop builds one state object per run and updates it in place
    between events, so policies must read what they need inside ``decide``
    and must not retain the object (or its ``active``/``remaining_list``
    lists) across calls.

    Policies read per-job dynamic state through :meth:`active_jobs`,
    :meth:`remaining_fraction` and :meth:`fastest_remaining_work`, or
    through ``remaining_list`` directly.

    Attributes
    ----------
    instance:
        The instance the policy schedules: the event loop's zero-copy
        :class:`~repro.simulation.window.InstanceView` of the jobs admitted
        so far (costs, weights, release dates).
    time:
        Current simulation time.
    next_arrival:
        Release date of the next not-yet-arrived job (``None`` when all jobs
        have arrived).  On-line policies are allowed to *peek* at this value
        only to bound their planning horizon; clairvoyant policies that
        exploit it further should say so in their documentation.
    active:
        Sorted list of active job indices: jobs that have arrived and are
        not finished.  The event loop maintains it incrementally.
    remaining_list:
        Per-job remaining fractions, indexed like ``instance.jobs`` (1.0 at
        arrival, 0.0 once done).  The event loop binds the window's own
        list of Python floats and updates it in place at every advance,
        completion and compaction: the one copy of the remaining work.
    """

    instance: Instance
    time: float
    next_arrival: Optional[float]
    active: List[int]
    remaining_list: List[float]

    # ------------------------------------------------------------------ #
    def active_jobs(self) -> List[int]:
        """Indices of jobs that have arrived and are not finished."""
        return list(self.active)

    def remaining_fraction(self, job_index: int) -> float:
        """Remaining fraction of job ``job_index``."""
        return self.remaining_list[job_index]

    def fastest_remaining_work(self, job_index: int) -> float:
        """Remaining processing time of the job on its fastest machine."""
        return self.remaining_fraction(job_index) * self.instance.min_cost(job_index)


@dataclass
class AllocationDecision:
    """A policy's answer: machine shares to apply until the next event.

    Attributes
    ----------
    shares:
        Mapping ``machine_index -> [(job_index, share), ...]``.  Shares on a
        machine must be positive and sum to at most 1; jobs must be active
        and runnable on the machine.  Machines absent from the mapping stay
        idle.
    wake_up_at:
        Optional absolute time at which the policy wants to be invoked again
        even if no arrival/completion happens before (used by plan-following
        policies).
    all_exclusive:
        Structural guarantee set by
        :func:`~repro.heuristics.base.exclusive_allocation`: every entry of
        ``shares`` is a single full ``(job, 1.0)`` share.  The streaming
        fast core specialises its advance/progress arithmetic on it; a
        hand-built decision may leave it ``False`` even when the shape
        happens to match (only the generic path is taken then).
    """

    shares: Dict[int, MachineShare] = field(default_factory=dict)
    wake_up_at: Optional[float] = None
    all_exclusive: bool = False

    def validate(self, state: SimulationState, tol: float = 1e-9) -> None:
        """Check the decision against the current state; raise :class:`SimulationError`."""
        instance = state.instance
        active = set(state.active_jobs())
        for machine_index, share_list in self.shares.items():
            if not (0 <= machine_index < instance.num_machines):
                raise SimulationError(f"allocation references unknown machine #{machine_index}")
            total = 0.0
            for job_index, share in share_list:
                if not (0 <= job_index < instance.num_jobs):
                    raise SimulationError(f"allocation references unknown job #{job_index}")
                if job_index not in active:
                    raise SimulationError(
                        f"allocation gives machine #{machine_index} to job #{job_index}, "
                        "which is not active"
                    )
                if share <= tol:
                    raise SimulationError(
                        f"allocation share {share} for job #{job_index} must be positive"
                    )
                cost = instance.cost(machine_index, job_index)
                if cost == float("inf"):
                    raise SimulationError(
                        f"job #{job_index} cannot run on machine #{machine_index} "
                        "(required databank missing)"
                    )
                total += share
            if total > 1.0 + 1e-6:
                raise SimulationError(
                    f"machine #{machine_index} is allocated {total:.6g} > 1 of its capacity"
                )
        if self.wake_up_at is not None and self.wake_up_at < state.time - tol:
            raise SimulationError(
                f"wake-up requested at {self.wake_up_at}, before current time {state.time}"
            )

    def job_rates(self, state: SimulationState) -> Dict[int, float]:
        """Return the progress rate (fraction per second) of every allocated job."""
        rates: Dict[int, float] = {}
        for machine_index, share_list in self.shares.items():
            for job_index, share in share_list:
                cost = state.instance.cost(machine_index, job_index)
                rates[job_index] = rates.get(job_index, 0.0) + share / cost
        return rates
