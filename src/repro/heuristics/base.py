"""Base class and helpers for on-line scheduling policies.

A policy implements :meth:`OnlineScheduler.decide`: given the current
:class:`~repro.simulation.state.SimulationState`, it returns an
:class:`~repro.simulation.state.AllocationDecision` describing how each
machine splits its time among the active jobs until the next event.

Policies fall into three families:

* **non-preemptive list schedulers** (FIFO, SPT, MCT): a job, once started on
  a machine, runs there to completion;
* **preemptive single-machine policies** (SRPT, greedy weighted flow): jobs
  may migrate between machines at events but never use two machines at once;
* **divisible policies** (round-robin processor sharing, the on-line
  adaptation of the off-line algorithm): machine time may be split
  arbitrarily, as the divisible-load model allows.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Iterable, List

from ..core.instance import Instance
from ..simulation.state import AllocationDecision, SimulationState

__all__ = [
    "OnlineScheduler",
    "exclusive_allocation",
    "fastest_free_assignment",
]


class OnlineScheduler(abc.ABC):
    """Protocol every on-line policy implements.

    Attributes
    ----------
    name:
        Human-readable policy name (appears in simulation results and bench
        tables).
    divisible:
        Whether the policy may split a job across machines simultaneously.
        Stored on the resulting :class:`~repro.core.schedule.Schedule` so that
        validation applies the right rules.

    Every policy has one decision path, :meth:`decide`.  It reads per-job
    dynamic state through ``active_jobs()``, ``remaining_fraction()`` (and
    the accessors derived from it) or ``remaining_list``; the event loop
    passes ``jobs=None`` (see :class:`~repro.simulation.state.SimulationState`).
    """

    name: str = "scheduler"
    divisible: bool = False

    def reset(self, instance: Instance) -> None:
        """Called once before a simulation starts; clear any internal state."""

    def rebind(self, instance: Instance) -> None:
        """Called by the streaming simulator when the window instance grows.

        Under the rolling-horizon :class:`~repro.simulation.stream.StreamingSimulator`
        the instance handed to :meth:`decide` is the *active window*: arrivals
        append new jobs (existing indices are stable).  Policies that
        precompute per-instance arrays at :meth:`reset` refresh them here;
        the default is a no-op, which is correct for policies that read the
        instance afresh at every decision.
        """

    def compact(self, instance: Instance, mapping: Dict[int, int]) -> None:
        """Called by the streaming simulator after completed jobs are compacted out.

        ``mapping`` maps every *surviving* old window index to its new index
        (completed jobs are absent).  Policies holding index-keyed state
        remap it and keep going; the safe default resets the policy, which
        forgets cross-event state (plans, commitments) but never misbehaves.
        Overriding with an exact remap makes the policy's streamed behaviour
        independent of *when* compaction happens — the property the
        streaming tests assert.
        """
        self.reset(instance)

    @abc.abstractmethod
    def decide(self, state: SimulationState) -> AllocationDecision:
        """Return the allocation to apply from ``state.time`` until the next event."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


def exclusive_allocation(assignments: Dict[int, int]) -> AllocationDecision:
    """Build a decision giving each machine exclusively to one job.

    Parameters
    ----------
    assignments:
        Mapping ``machine_index -> job_index``.
    """
    return AllocationDecision(
        shares={machine: [(job, 1.0)] for machine, job in assignments.items()},
        all_exclusive=True,
    )


def fastest_free_assignment(instance: Instance, ranked: Iterable[int]) -> AllocationDecision:
    """Give each job, in ``ranked`` order, its fastest still-free machine.

    An ascending machine scan with a strict ``<``: each job takes the
    lowest-index free machine achieving its minimum cost, and a job no free
    machine can run is skipped.  The costs are read per machine row: Python
    floats on the streaming view (``costs_rows``), row views of the cost
    array on a plain :class:`~repro.core.instance.Instance`.  The shares are
    built in assignment order, exactly as :func:`exclusive_allocation` would
    build them.
    """
    rows = getattr(instance, "costs_rows", None)
    if rows is None:
        rows = list(instance.costs)
    free_machines = list(range(instance.num_machines))
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
        if best_machine < 0:
            continue
        shares[best_machine] = [(job_index, 1.0)]
        free_machines.remove(best_machine)
    return AllocationDecision(shares=shares, all_exclusive=True)


