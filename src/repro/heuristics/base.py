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
from typing import Dict, Iterable, List, Optional

from ..core.instance import Instance
from ..simulation.state import AllocationDecision, SimulationState

__all__ = ["OnlineScheduler", "exclusive_allocation", "cheapest_eligible_machine"]


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
    array_aware:
        Opt-in capability flag of the parametric replanning runtime.  A
        policy that sets it ``True`` promises to read per-job dynamic state
        only through the event loop's remaining-work vector
        (:attr:`~repro.simulation.state.SimulationState.remaining_vector`,
        directly or via the state's scalar accessors, which prefer it, or
        its Python-float twin ``remaining_list``).  The event loop then
        dispatches to :meth:`decide_arrays` and skips the per-event
        ``JobProgress`` mirror updates entirely; legacy policies (the
        default) are untouched and the executed output is byte-for-byte
        identical either way.
    """

    name: str = "scheduler"
    divisible: bool = False
    array_aware: bool = False

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

    def decide_arrays(self, state: SimulationState) -> AllocationDecision:
        """Array-aware variant of :meth:`decide`.

        Invoked by the event loop instead of :meth:`decide` when ``array_aware``
        is set.  ``state.remaining_vector`` is guaranteed to be bound.  The
        default delegates to :meth:`decide`, which suffices for policies
        whose scalar reads already go through the (vector-preferring) state
        accessors; policies wanting vectorised ranking override this.
        """
        return self.decide(state)

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


def cheapest_eligible_machine(
    instance: Instance, job_index: int, machines: Optional[Iterable[int]] = None
) -> Optional[int]:
    """Return the machine with the smallest ``c[i, j]`` among ``machines``.

    ``None`` when no machine in the pool can process the job.
    """
    pool: List[int] = list(machines) if machines is not None else list(range(instance.num_machines))
    best: Optional[int] = None
    best_cost = math.inf
    for machine_index in pool:
        cost = instance.cost(machine_index, job_index)
        if cost < best_cost:
            best_cost = cost
            best = machine_index
    if best is not None and math.isinf(best_cost):
        return None
    return best
