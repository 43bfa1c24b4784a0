"""Schedule representation, metrics and validation.

Every solver and every heuristic in this library returns a :class:`Schedule`:
a list of :class:`SchedulePiece` objects, each stating that a machine
processed a fraction of a job over a time span.  The class computes the
paper's metrics (makespan, flow, weighted flow, stretch) and — crucially for
the test-suite — re-validates every model constraint from scratch:

* no piece starts before its job's release date,
* a machine never runs two pieces at the same time,
* every job is processed to completion (fractions sum to one),
* processed fractions are consistent with the piece durations and ``c_{i,j}``,
* in *preemptive* (non-divisible) mode a job never runs on two machines at
  the same instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exceptions import InvalidScheduleError
from .instance import Instance
from .tolerances import FEASIBILITY_TOL

__all__ = ["SchedulePiece", "Schedule", "ScheduleMetrics"]


@dataclass(frozen=True)
class SchedulePiece:
    """One contiguous execution of (a fraction of) a job on a machine.

    Attributes
    ----------
    job_index, machine_index:
        Indices into the instance's job and machine lists.
    start, end:
        Execution window in seconds; ``end >= start``.
    fraction:
        Fraction of the job's total work performed during the window.  For a
        well-formed piece ``end - start == fraction * c[machine, job]``.
    """

    job_index: int
    machine_index: int
    start: float
    end: float
    fraction: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise InvalidScheduleError(
                f"piece for job #{self.job_index} on machine #{self.machine_index} "
                f"has end {self.end} before start {self.start}"
            )
        if self.fraction < 0:
            raise InvalidScheduleError(
                f"piece for job #{self.job_index} has negative fraction {self.fraction}"
            )

    @property
    def duration(self) -> float:
        """Length of the execution window."""
        return self.end - self.start


@dataclass(frozen=True)
class ScheduleMetrics:
    """Aggregate metrics of a schedule, as defined in Section 3 of the paper."""

    makespan: float
    max_flow: float
    total_flow: float
    mean_flow: float
    max_weighted_flow: float
    max_stretch: Optional[float]
    completion_times: Dict[int, float]

    def summary(self) -> str:
        """Return a one-line human-readable summary."""
        stretch = "n/a" if self.max_stretch is None else f"{self.max_stretch:.4g}"
        return (
            f"makespan={self.makespan:.4g}  max_flow={self.max_flow:.4g}  "
            f"mean_flow={self.mean_flow:.4g}  max_weighted_flow={self.max_weighted_flow:.4g}  "
            f"max_stretch={stretch}"
        )


@dataclass
class Schedule:
    """A complete schedule for an :class:`~repro.core.instance.Instance`.

    Attributes
    ----------
    instance:
        The instance this schedule refers to.
    pieces:
        The execution pieces; order is irrelevant.
    divisible:
        ``True`` when the schedule is allowed to run a job on several
        machines simultaneously (the divisible-load model of Section 4.3);
        ``False`` for the preemptive-only model of Section 4.4.
    """

    instance: Instance
    pieces: List[SchedulePiece] = field(default_factory=list)
    divisible: bool = True

    # ------------------------------------------------------------------ #
    # Construction helpers                                                #
    # ------------------------------------------------------------------ #
    def add_piece(
        self,
        job_index: int,
        machine_index: int,
        start: float,
        end: float,
        fraction: Optional[float] = None,
    ) -> SchedulePiece:
        """Append a piece; the fraction defaults to ``duration / c[i, j]``."""
        if fraction is None:
            cost = self.instance.cost(machine_index, job_index)
            if not math.isfinite(cost):
                raise InvalidScheduleError(
                    f"cannot infer the fraction of job #{job_index} on machine "
                    f"#{machine_index}: the processing time is infinite"
                )
            fraction = (end - start) / cost
        piece = SchedulePiece(job_index, machine_index, start, end, fraction)
        self.pieces.append(piece)
        return piece

    def merge(self, other: "Schedule") -> "Schedule":
        """Return a new schedule containing the pieces of both schedules."""
        if other.instance is not self.instance:
            raise InvalidScheduleError("cannot merge schedules of different instances")
        return Schedule(
            instance=self.instance,
            pieces=list(self.pieces) + list(other.pieces),
            divisible=self.divisible and other.divisible,
        )

    def compact(self, tol: float = 1e-12) -> "Schedule":
        """Return a copy without zero-duration, zero-fraction pieces."""
        kept = [
            piece
            for piece in self.pieces
            if piece.duration > tol or piece.fraction > tol
        ]
        return Schedule(instance=self.instance, pieces=kept, divisible=self.divisible)

    # ------------------------------------------------------------------ #
    # Metrics                                                             #
    # ------------------------------------------------------------------ #
    def completion_time(self, job_index: int) -> float:
        """Completion time ``C_j``: the end of the job's last piece."""
        ends = [piece.end for piece in self.pieces if piece.job_index == job_index]
        if not ends:
            raise InvalidScheduleError(f"job #{job_index} never appears in the schedule")
        return max(ends)

    def completion_times(self) -> Dict[int, float]:
        """Completion times of every job appearing in the schedule."""
        completions: Dict[int, float] = {}
        for piece in self.pieces:
            current = completions.get(piece.job_index, float("-inf"))
            if piece.end > current:
                completions[piece.job_index] = piece.end
        return completions

    def flow(self, job_index: int) -> float:
        """Flow ``F_j = C_j - r_j`` of job ``job_index``."""
        return self.completion_time(job_index) - self.instance.jobs[job_index].release_date

    def weighted_flow(self, job_index: int) -> float:
        """Weighted flow ``w_j (C_j - r_j)`` of job ``job_index``."""
        return self.instance.jobs[job_index].weight * self.flow(job_index)

    def stretch(self, job_index: int) -> float:
        """Stretch of job ``job_index``: flow divided by its fastest processing time.

        The normalisation uses the fastest single-machine time
        ``min_i c[i, j]``, i.e. the time the job would take with a dedicated
        fastest machine — the customary definition for unrelated machines.
        """
        return self.flow(job_index) / self.instance.min_cost(job_index)

    @property
    def makespan(self) -> float:
        """``max_j C_j`` (0.0 for an empty schedule)."""
        return max((piece.end for piece in self.pieces), default=0.0)

    @property
    def max_flow(self) -> float:
        """``max_j F_j``."""
        completions = self.completion_times()
        return max(
            (c - self.instance.jobs[j].release_date for j, c in completions.items()),
            default=0.0,
        )

    @property
    def max_weighted_flow(self) -> float:
        """``max_j w_j F_j`` — the paper's objective."""
        completions = self.completion_times()
        return max(
            (
                self.instance.jobs[j].weight * (c - self.instance.jobs[j].release_date)
                for j, c in completions.items()
            ),
            default=0.0,
        )

    @property
    def total_flow(self) -> float:
        """``sum_j F_j``."""
        completions = self.completion_times()
        return sum(c - self.instance.jobs[j].release_date for j, c in completions.items())

    @property
    def max_stretch(self) -> float:
        """``max_j F_j / min_i c[i, j]``."""
        completions = self.completion_times()
        return max(
            (
                (c - self.instance.jobs[j].release_date) / self.instance.min_cost(j)
                for j, c in completions.items()
            ),
            default=0.0,
        )

    def metrics(self) -> ScheduleMetrics:
        """Return all aggregate metrics in one object."""
        completions = self.completion_times()
        n = max(len(completions), 1)
        return ScheduleMetrics(
            makespan=self.makespan,
            max_flow=self.max_flow,
            total_flow=self.total_flow,
            mean_flow=self.total_flow / n,
            max_weighted_flow=self.max_weighted_flow,
            max_stretch=self.max_stretch if completions else None,
            completion_times=completions,
        )

    def pieces_of_job(self, job_index: int) -> List[SchedulePiece]:
        """Return the pieces of job ``job_index`` sorted by start time."""
        return sorted(
            (piece for piece in self.pieces if piece.job_index == job_index),
            key=lambda piece: (piece.start, piece.end),
        )

    def pieces_on_machine(self, machine_index: int) -> List[SchedulePiece]:
        """Return the pieces on machine ``machine_index`` sorted by start time."""
        return sorted(
            (piece for piece in self.pieces if piece.machine_index == machine_index),
            key=lambda piece: (piece.start, piece.end),
        )

    # ------------------------------------------------------------------ #
    # Validation                                                          #
    # ------------------------------------------------------------------ #
    def validate(self, tol: float = FEASIBILITY_TOL, require_completion: bool = True) -> None:
        """Check every model constraint; raise :class:`InvalidScheduleError` on failure.

        Parameters
        ----------
        tol:
            Numerical tolerance for all comparisons.
        require_completion:
            When ``True`` (the default) every job of the instance must be
            fully processed.  Heuristic snapshots of partially executed
            workloads may pass ``False``.
        """
        errors = self.validation_errors(tol=tol, require_completion=require_completion)
        if errors:
            raise InvalidScheduleError("; ".join(errors))

    def validation_errors(
        self, tol: float = FEASIBILITY_TOL, require_completion: bool = True
    ) -> List[str]:
        """Return the list of violated constraints (empty when the schedule is valid)."""
        errors: List[str] = []
        instance = self.instance

        fractions: Dict[int, float] = {j: 0.0 for j in range(instance.num_jobs)}

        for piece in self.pieces:
            if not (0 <= piece.job_index < instance.num_jobs):
                errors.append(f"piece references unknown job #{piece.job_index}")
                continue
            if not (0 <= piece.machine_index < instance.num_machines):
                errors.append(f"piece references unknown machine #{piece.machine_index}")
                continue
            job = instance.jobs[piece.job_index]
            cost = instance.cost(piece.machine_index, piece.job_index)

            if piece.start < job.release_date - tol:
                errors.append(
                    f"job {job.name} starts at {piece.start:.6g} before its release date "
                    f"{job.release_date:.6g}"
                )
            if not math.isfinite(cost):
                if piece.fraction > tol or piece.duration > tol:
                    errors.append(
                        f"job {job.name} runs on machine "
                        f"{instance.machines[piece.machine_index].name} which cannot process it"
                    )
            else:
                expected = piece.fraction * cost
                if abs(expected - piece.duration) > tol * max(1.0, cost):
                    errors.append(
                        f"job {job.name} piece on machine "
                        f"{instance.machines[piece.machine_index].name}: duration "
                        f"{piece.duration:.6g} does not match fraction*cost {expected:.6g}"
                    )
            fractions[piece.job_index] = fractions.get(piece.job_index, 0.0) + piece.fraction

        # Completion.
        if require_completion:
            for j, total in fractions.items():
                if abs(total - 1.0) > max(tol, 1e-5):
                    errors.append(
                        f"job {instance.jobs[j].name} is processed to fraction {total:.6g} "
                        "instead of 1"
                    )

        # Machine capacity: no two pieces overlap on the same machine.
        for i in range(instance.num_machines):
            timeline = self.pieces_on_machine(i)
            for before, after in zip(timeline, timeline[1:]):
                if after.start < before.end - tol:
                    errors.append(
                        f"machine {instance.machines[i].name} runs two pieces simultaneously "
                        f"([{before.start:.6g}, {before.end:.6g}) and "
                        f"[{after.start:.6g}, {after.end:.6g}))"
                    )

        # Preemptive (non-divisible) mode: a job never runs on two machines at once.
        if not self.divisible:
            for j in range(instance.num_jobs):
                timeline = self.pieces_of_job(j)
                for before, after in zip(timeline, timeline[1:]):
                    if after.start < before.end - tol:
                        errors.append(
                            f"job {instance.jobs[j].name} runs on two machines simultaneously "
                            f"([{before.start:.6g}, {before.end:.6g}) and "
                            f"[{after.start:.6g}, {after.end:.6g}))"
                        )

        return errors

    # ------------------------------------------------------------------ #
    # Presentation                                                        #
    # ------------------------------------------------------------------ #
    def as_table(self, max_rows: int = 50) -> str:
        """Return an ASCII table of the pieces (for examples and debugging)."""
        header = f"{'job':<12}{'machine':<12}{'start':>12}{'end':>12}{'fraction':>12}"
        lines = [header, "-" * len(header)]
        ordered = sorted(self.pieces, key=lambda piece: (piece.start, piece.machine_index))
        for piece in ordered[:max_rows]:
            job = self.instance.jobs[piece.job_index]
            machine = self.instance.machines[piece.machine_index]
            lines.append(
                f"{job.name:<12}{machine.name:<12}{piece.start:>12.4f}{piece.end:>12.4f}"
                f"{piece.fraction:>12.4f}"
            )
        if len(ordered) > max_rows:
            lines.append(f"... ({len(ordered) - max_rows} more pieces)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.pieces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule({len(self.pieces)} pieces, divisible={self.divisible}, "
            f"makespan={self.makespan:.4g})"
        )
