"""Machine and platform model.

A *machine* is a sequence-comparison server co-located with one or more
protein databanks.  In the general unrelated-machines model only the cost
matrix matters; machines then merely carry a name.  In the
uniform-machines-with-restricted-availabilities model (the one that matches
the GriPPS deployment) each machine additionally has a computational
capacity ``c_i`` expressed in seconds per Mflop and the set of databanks it
hosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Set

from ..exceptions import InvalidInstanceError
from .job import Job

__all__ = ["Machine", "Platform"]


@dataclass(frozen=True)
class Machine:
    """A sequence-comparison server.

    Attributes
    ----------
    name:
        Unique machine identifier (e.g. ``"M2"`` or a hostname).
    cycle_time:
        Computational capacity ``c_i`` in seconds per Mflop: processing a job
        of size ``W_j`` takes ``W_j * cycle_time`` seconds.  Ignored when the
        instance is built from an explicit unrelated cost matrix.
    databanks:
        Names of the databanks hosted on this machine.
    """

    name: str
    cycle_time: float = 1.0
    databanks: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidInstanceError("machine name must be a non-empty string")
        if not math.isfinite(self.cycle_time) or self.cycle_time <= 0:
            raise InvalidInstanceError(
                f"machine {self.name!r}: cycle_time must be finite and > 0, got {self.cycle_time!r}"
            )
        if not isinstance(self.databanks, frozenset):
            object.__setattr__(self, "databanks", frozenset(self.databanks))

    # ------------------------------------------------------------------ #
    def can_run(self, job: Job) -> bool:
        """Return ``True`` when every databank required by ``job`` is hosted here."""
        return job.databanks <= self.databanks

    def processing_time(self, job: Job) -> float:
        """Return ``c_{i,j}`` under the uniform-with-restrictions model.

        ``W_j * c_i`` when the data dependences are satisfied, ``+inf``
        otherwise.  Requires the job to carry a size.
        """
        if not self.can_run(job):
            return float("inf")
        if job.size is None:
            raise InvalidInstanceError(
                f"job {job.name!r} has no size; cannot compute a uniform processing time"
            )
        return job.size * self.cycle_time


@dataclass(frozen=True)
class Platform:
    """A heterogeneous collection of machines / databank replicas.

    The platform is immutable; helper constructors live in
    :mod:`repro.gripps.platform_gen` and :mod:`repro.workload.generators`.
    """

    machines: tuple

    def __init__(self, machines: Iterable[Machine]) -> None:
        machines = tuple(machines)
        if len(machines) == 0:
            raise InvalidInstanceError("a platform needs at least one machine")
        names: Set[str] = set()
        for machine in machines:
            if not isinstance(machine, Machine):
                raise InvalidInstanceError(
                    f"platform expects Machine objects, got {type(machine).__name__}"
                )
            if machine.name in names:
                raise InvalidInstanceError(f"duplicate machine name {machine.name!r}")
            names.add(machine.name)
        object.__setattr__(self, "machines", machines)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self):
        return iter(self.machines)

    def __getitem__(self, index: int) -> Machine:
        return self.machines[index]

    @property
    def names(self) -> List[str]:
        """Machine names in platform order."""
        return [machine.name for machine in self.machines]

    @property
    def databanks(self) -> FrozenSet[str]:
        """The union of all databanks hosted anywhere on the platform."""
        banks: Set[str] = set()
        for machine in self.machines:
            banks |= machine.databanks
        return frozenset(banks)
