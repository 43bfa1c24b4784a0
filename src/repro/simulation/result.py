"""Result object of an on-line simulation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.schedule import Schedule, ScheduleMetrics

__all__ = ["SimulationResult", "EventRecord"]


@dataclass(frozen=True)
class EventRecord:
    """One event recorded by a finite-instance run (kept for traces and debugging).

    Attributes
    ----------
    time:
        Event time.
    kind:
        ``"start"`` (once, at the first release date), ``"arrival"`` or
        ``"completion"``.  Requested wake-ups are not recorded.
    job_index:
        Job concerned by the event (``-1`` for ``"start"``).
    """

    time: float
    kind: str
    job_index: int = -1


@dataclass
class SimulationResult:
    """Outcome of simulating an on-line policy over an instance.

    Attributes
    ----------
    scheduler_name:
        Name of the policy that produced the schedule.
    schedule:
        The complete executed schedule (validates like any off-line schedule).
    events:
        The chronological list of processed events.
    num_scheduler_calls:
        How many times the policy was invoked.
    num_preemptions:
        Number of times a job's execution on a machine was interrupted before
        the job was finished (a change of machine or a pause both count).
    completion_times:
        Completion time of every job.
    """

    scheduler_name: str
    schedule: Schedule
    events: List[EventRecord]
    num_scheduler_calls: int
    num_preemptions: int
    completion_times: Dict[int, float]

    def metrics(self) -> ScheduleMetrics:
        """Aggregate schedule metrics (makespan, flows, stretch)."""
        return self.schedule.metrics()

    @property
    def max_weighted_flow(self) -> float:
        """Maximum weighted flow achieved by the policy."""
        return self.schedule.max_weighted_flow

    @property
    def max_stretch(self) -> float:
        """Maximum stretch achieved by the policy."""
        return self.schedule.max_stretch

    @property
    def makespan(self) -> float:
        """Makespan achieved by the policy."""
        return self.schedule.makespan

    def summary(self) -> str:
        """One-line summary used by the examples and benches."""
        metrics = self.metrics()
        return (
            f"{self.scheduler_name:<24} max_wflow={metrics.max_weighted_flow:10.4f}  "
            f"max_stretch={metrics.max_stretch if metrics.max_stretch is not None else float('nan'):10.4f}  "
            f"makespan={metrics.makespan:10.3f}  preemptions={self.num_preemptions}"
        )
