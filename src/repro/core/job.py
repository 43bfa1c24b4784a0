"""Job model: divisible requests with release dates, weights and data dependences.

A *job* in the paper is one user request: compare a set of motifs against one
(or more) protein databanks.  The scheduling theory only needs three numbers
per job — the release date ``r_j``, the priority weight ``w_j`` and the
processing time ``c_{i,j}`` on every machine — plus, for the
uniform-machines-with-restricted-availabilities special case, the job size
``W_j`` (in Mflop) and the set of databanks it depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence

from ..exceptions import InvalidInstanceError

__all__ = ["Job", "sort_by_release_date", "validate_jobs"]


@dataclass(frozen=True)
class Job:
    """A divisible request.

    Attributes
    ----------
    name:
        Unique identifier of the job (e.g. ``"J3"`` or a request UUID).
    release_date:
        Arrival time ``r_j`` in seconds; the job cannot be processed earlier.
    weight:
        Priority ``w_j`` used by the maximum *weighted* flow objective.  Use
        ``1.0`` for plain max-flow; use ``1 / size`` for max-stretch (see
        :meth:`stretch_weight`).
    size:
        Amount of work ``W_j`` in Mflop.  Only needed by the
        uniform-machines model and the stretch objective; purely unrelated
        instances may leave it ``None``.
    databanks:
        Names of the databanks the job needs.  A machine can process the job
        only if it hosts *all* of them.  Empty means "no data dependence".
    """

    name: str
    release_date: float
    weight: float = 1.0
    size: Optional[float] = None
    databanks: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidInstanceError("job name must be a non-empty string")
        if not math.isfinite(self.release_date) or self.release_date < 0:
            raise InvalidInstanceError(
                f"job {self.name!r}: release date must be finite and >= 0, got {self.release_date!r}"
            )
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise InvalidInstanceError(
                f"job {self.name!r}: weight must be finite and > 0, got {self.weight!r}"
            )
        if self.size is not None and (not math.isfinite(self.size) or self.size <= 0):
            raise InvalidInstanceError(
                f"job {self.name!r}: size must be finite and > 0 when given, got {self.size!r}"
            )
        if not isinstance(self.databanks, frozenset):
            # Accept any iterable of strings at construction time for convenience.
            object.__setattr__(self, "databanks", frozenset(self.databanks))

    # ------------------------------------------------------------------ #
    def weighted_flow(self, completion_time: float) -> float:
        """Return ``w_j (C_j - r_j)`` for a given completion time."""
        return self.weight * (completion_time - self.release_date)

    def stretch_weight(self) -> float:
        """Return the weight that turns max weighted flow into max stretch.

        The stretch of a job is its flow divided by its processing demand, so
        the corresponding weight is ``1 / W_j``.  (The paper's prose says
        "weight equal to its size"; with the ``w_j (C_j - r_j)`` definition of
        weighted flow used throughout the paper the stretch objective is
        obtained with ``w_j = 1 / W_j``, which is what we implement.)
        """
        if self.size is None:
            raise InvalidInstanceError(
                f"job {self.name!r} has no size; cannot derive a stretch weight"
            )
        return 1.0 / self.size

    def with_weight(self, weight: float) -> "Job":
        """Return a copy of the job with a different weight."""
        return Job(
            name=self.name,
            release_date=self.release_date,
            weight=weight,
            size=self.size,
            databanks=self.databanks,
        )


def sort_by_release_date(jobs: Iterable[Job]) -> List[Job]:
    """Return the jobs sorted by increasing release date (stable on ties).

    The paper assumes jobs are numbered by increasing release dates; the
    solvers call this helper so that callers do not have to pre-sort.
    """
    return sorted(jobs, key=lambda job: job.release_date)


def validate_jobs(jobs: Sequence[Job]) -> None:
    """Validate a job collection: non-empty, unique names.

    Raises
    ------
    InvalidInstanceError
        If the collection is empty or two jobs share a name.
    """
    if len(jobs) == 0:
        raise InvalidInstanceError("an instance needs at least one job")
    seen = set()
    for job in jobs:
        if job.name in seen:
            raise InvalidInstanceError(f"duplicate job name {job.name!r}")
        seen.add(job.name)
