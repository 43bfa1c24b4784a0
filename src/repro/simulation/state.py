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

import numpy as np

from ..core.instance import Instance
from ..exceptions import SimulationError

__all__ = ["JobProgress", "SimulationState", "AllocationDecision", "MachineShare"]

#: A machine's allocation: list of ``(job_index, share)`` pairs, shares summing to at most 1.
MachineShare = List[Tuple[int, float]]


@dataclass
class JobProgress:
    """Dynamic state of one job during the simulation.

    Attributes
    ----------
    job_index:
        Index of the job in the instance.
    remaining_fraction:
        Fraction of the job still to be processed (1.0 at arrival, 0.0 when
        done).
    arrived:
        Whether the job's release date has passed.
    completion_time:
        Set when the job finishes.
    """

    job_index: int
    remaining_fraction: float = 1.0
    arrived: bool = False
    completion_time: Optional[float] = None

    @property
    def finished(self) -> bool:
        """Return ``True`` once the job has been fully processed."""
        return self.completion_time is not None


@dataclass
class SimulationState:
    """Snapshot handed to the scheduling policy at every event.

    The event loop builds one state object per run and updates it in place
    between events, so policies must read what they need inside ``decide``
    and must not retain the object (or its ``active``/``remaining_list``
    lists) across calls.

    Policies read per-job dynamic state only through :meth:`active_jobs` and
    the scalar accessors (:meth:`remaining_fraction` and the quantities
    derived from it), or through ``remaining_list`` when it is bound.  The
    accessors read whichever copy of the remaining work the state carries.

    Attributes
    ----------
    instance:
        The instance the policy schedules: the event loop's zero-copy
        :class:`~repro.simulation.window.InstanceView` of the jobs admitted
        so far (costs, weights, release dates).
    time:
        Current simulation time.
    jobs:
        Per-job :class:`JobProgress` objects, indexed like ``instance.jobs``,
        for states built by hand and by the frozen reference engines.  The
        event loop passes ``None``: its one copy of the remaining work is
        ``remaining_list``.
    next_arrival:
        Release date of the next not-yet-arrived job (``None`` when all jobs
        have arrived).  On-line policies are allowed to *peek* at this value
        only to bound their planning horizon; clairvoyant policies that
        exploit it further should say so in their documentation.
    active:
        Optional precomputed sorted list of active job indices.  The engine
        maintains this incrementally and passes it in so that
        :meth:`active_jobs` does not rescan every job at every event; states
        built by hand may leave it ``None``.
    remaining_vector:
        Optional numpy vector of per-job remaining fractions.  The event
        loop leaves it ``None``; the frozen rebuild reference
        (``tests/reference/stream_legacy.py``) binds it.
    remaining_list:
        The event loop's per-slot remaining fractions as Python floats: the
        window's own list, updated in place at every advance, completion
        and compaction.  States built by hand leave it ``None``.
    """

    instance: Instance
    time: float
    jobs: Optional[List[JobProgress]]
    next_arrival: Optional[float]
    active: Optional[List[int]] = None
    remaining_vector: Optional[np.ndarray] = None
    remaining_list: Optional[List[float]] = None

    # ------------------------------------------------------------------ #
    def active_jobs(self) -> List[int]:
        """Indices of jobs that have arrived and are not finished."""
        if self.active is not None:
            return list(self.active)
        return [
            progress.job_index
            for progress in self.jobs
            if progress.arrived and not progress.finished
        ]

    def remaining_fraction(self, job_index: int) -> float:
        """Remaining fraction of job ``job_index``.

        Reads ``remaining_list``, else ``remaining_vector``, else the
        ``jobs`` objects: the first copy the state carries.
        """
        if self.remaining_list is not None:
            return self.remaining_list[job_index]
        if self.remaining_vector is not None:
            return float(self.remaining_vector[job_index])
        return self.jobs[job_index].remaining_fraction

    def remaining_work(self, job_index: int, machine_index: int) -> float:
        """Remaining processing time of job ``job_index`` if run only on ``machine_index``."""
        return self.remaining_fraction(job_index) * self.instance.cost(
            machine_index, job_index
        )

    def fastest_remaining_work(self, job_index: int) -> float:
        """Remaining processing time of the job on its fastest machine."""
        return self.remaining_fraction(job_index) * self.instance.min_cost(job_index)

    def current_weighted_flow(self, job_index: int) -> float:
        """Weighted flow the job would have if it completed right now."""
        job = self.instance.jobs[job_index]
        return job.weight * (self.time - job.release_date)


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
