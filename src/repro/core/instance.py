"""Scheduling instance: jobs, machines and the unrelated cost matrix.

An :class:`Instance` bundles everything the solvers of Section 4 need:

* the ordered job list ``J_1 … J_n`` (sorted by release date, as the paper
  assumes),
* the machine list ``M_1 … M_m``,
* the cost matrix ``c[i, j]`` — the time machine ``M_i`` needs to process job
  ``J_j`` entirely, with ``+inf`` encoding "the databank needed by ``J_j`` is
  not present on ``M_i``".

Two constructors cover the two models discussed in Section 3:

* :meth:`Instance.from_costs` — fully unrelated machines, explicit matrix;
* :meth:`Instance.from_platform` — uniform machines with restricted
  availabilities: ``c[i, j] = W_j * c_i`` when machine ``i`` hosts every
  databank of job ``j``, ``+inf`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidInstanceError
from .job import Job, sort_by_release_date, validate_jobs
from .machine import Machine, Platform

__all__ = ["Instance", "machine_order"]


def machine_order(column: Sequence[float]) -> List[int]:
    """The machine preference order of one job's cost ``column``.

    The machines able to run the job (finite cost), fastest first, the
    lowest index first on equal costs (a stable sort).  The first free
    machine in this order is the one an ascending scan with a strict ``<``
    from ``inf`` picks.
    """
    return [
        i for i in sorted(range(len(column)), key=column.__getitem__) if column[i] < math.inf
    ]


@dataclass(frozen=True)
class Instance:
    """An off-line scheduling instance on unrelated machines.

    Attributes
    ----------
    jobs:
        Jobs sorted by increasing release date.
    machines:
        The machines, in the order matching the rows of ``costs``.
    costs:
        ``(m, n)`` float array; ``costs[i, j]`` is the time for machine ``i``
        to process the whole of job ``j`` (``np.inf`` when forbidden).
    """

    jobs: Tuple[Job, ...]
    machines: Tuple[Machine, ...]
    costs: np.ndarray

    # ------------------------------------------------------------------ #
    # Constructors                                                        #
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_costs(
        jobs: Sequence[Job],
        costs: Iterable[Iterable[float]],
        machines: Optional[Sequence[Machine]] = None,
    ) -> "Instance":
        """Build a fully unrelated instance from an explicit cost matrix.

        Parameters
        ----------
        jobs:
            The jobs (any order; they are re-sorted by release date and the
            matrix columns are permuted accordingly).
        costs:
            ``m x n`` matrix, one row per machine, one column per job in the
            order of ``jobs`` *as given*.
        machines:
            Optional machine objects; default machines named ``"M0" … "M{m-1}"``
            are created when omitted.
        """
        validate_jobs(jobs)
        cost_array = np.array([[float(v) for v in row] for row in costs], dtype=float)
        if cost_array.ndim != 2:
            raise InvalidInstanceError("cost matrix must be two-dimensional")
        m, n = cost_array.shape
        if n != len(jobs):
            raise InvalidInstanceError(
                f"cost matrix has {n} columns but there are {len(jobs)} jobs"
            )
        if machines is None:
            machines = [Machine(name=f"M{i}") for i in range(m)]
        if len(machines) != m:
            raise InvalidInstanceError(
                f"cost matrix has {m} rows but there are {len(machines)} machines"
            )

        order = sorted(range(len(jobs)), key=lambda k: jobs[k].release_date)
        sorted_jobs = tuple(jobs[k] for k in order)
        permuted = cost_array[:, order]
        return Instance(jobs=sorted_jobs, machines=tuple(machines), costs=permuted)

    @staticmethod
    def from_platform(jobs: Sequence[Job], platform: Platform) -> "Instance":
        """Build a uniform-machines-with-restricted-availabilities instance.

        Every job must carry a ``size``; the cost matrix is
        ``W_j * cycle_time_i`` where the databank constraint is met and
        ``+inf`` elsewhere.
        """
        validate_jobs(jobs)
        sorted_jobs = sort_by_release_date(jobs)
        machines = tuple(platform.machines)
        costs = np.empty((len(machines), len(sorted_jobs)), dtype=float)
        for i, machine in enumerate(machines):
            for j, job in enumerate(sorted_jobs):
                costs[i, j] = machine.processing_time(job)
        return Instance(jobs=tuple(sorted_jobs), machines=machines, costs=costs)

    # ------------------------------------------------------------------ #
    # Validation                                                          #
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if not isinstance(self.costs, np.ndarray):
            object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))
        if self.costs.shape != (len(self.machines), len(self.jobs)):
            raise InvalidInstanceError(
                f"cost matrix shape {self.costs.shape} does not match "
                f"({len(self.machines)} machines, {len(self.jobs)} jobs)"
            )
        validate_jobs(self.jobs)
        if len(self.machines) == 0:
            raise InvalidInstanceError("an instance needs at least one machine")
        # Jobs must be sorted by release date (the paper's convention).
        for earlier, later in zip(self.jobs, self.jobs[1:]):
            if earlier.release_date > later.release_date:
                raise InvalidInstanceError(
                    "jobs must be sorted by increasing release date; use one of the "
                    "Instance constructors to sort them automatically"
                )
        # Costs must be positive (possibly infinite), never NaN.
        if np.isnan(self.costs).any():
            raise InvalidInstanceError("cost matrix contains NaN entries")
        finite = np.isfinite(self.costs)
        if (self.costs[finite] <= 0).any():
            raise InvalidInstanceError("finite processing times must be positive")
        # Every job needs at least one machine able to run it.
        for j, job in enumerate(self.jobs):
            if not finite[:, j].any():
                raise InvalidInstanceError(
                    f"job {job.name!r} cannot be processed on any machine "
                    "(all processing times are infinite)"
                )

    # ------------------------------------------------------------------ #
    # Basic accessors                                                     #
    # ------------------------------------------------------------------ #
    @property
    def num_jobs(self) -> int:
        """Number of jobs ``n``."""
        return len(self.jobs)

    @property
    def num_machines(self) -> int:
        """Number of machines ``m``."""
        return len(self.machines)

    @property
    def release_dates(self) -> List[float]:
        """Release dates in job order (non-decreasing)."""
        return [job.release_date for job in self.jobs]

    @property
    def weights(self) -> List[float]:
        """Job weights in job order."""
        return [job.weight for job in self.jobs]

    def cost(self, machine_index: int, job_index: int) -> float:
        """Return ``c[i, j]``."""
        return float(self.costs[machine_index, job_index])

    def job_index(self, name: str) -> int:
        """Return the index of the job called ``name`` (KeyError when absent)."""
        for index, job in enumerate(self.jobs):
            if job.name == name:
                return index
        raise KeyError(f"no job named {name!r} in instance")

    def machine_index(self, name: str) -> int:
        """Return the index of the machine called ``name`` (KeyError when absent)."""
        for index, machine in enumerate(self.machines):
            if machine.name == name:
                return index
        raise KeyError(f"no machine named {name!r} in instance")

    # ------------------------------------------------------------------ #
    # Derived quantities                                                  #
    # ------------------------------------------------------------------ #
    def min_cost(self, job_index: int) -> float:
        """Fastest single-machine processing time of job ``job_index``."""
        return float(np.min(self.costs[:, job_index]))

    @property
    def job_lists(self) -> Tuple[List[float], List[float], List[float]]:
        """``(fastest costs, weights, release dates)`` as Python floats in job order.

        Cached after the first access (instances are frozen, so the lists
        never go stale).  The ranking policies read these at each decision;
        the streaming :class:`~repro.simulation.window.InstanceView` provides
        the same accessor over its window metadata, with the same doubles.
        """
        cache = getattr(self, "_job_lists_cache", None)
        if cache is None:
            cache = (
                [self.min_cost(j) for j in range(self.num_jobs)],
                [job.weight for job in self.jobs],
                [job.release_date for job in self.jobs],
            )
            object.__setattr__(self, "_job_lists_cache", cache)
        return cache

    @property
    def machine_orders(self) -> List[List[int]]:
        """Each job's :func:`machine_order`, in job order.

        Cached like :attr:`job_lists`; the streaming
        :class:`~repro.simulation.window.InstanceView` records the same
        lists at admission.
        """
        cache = getattr(self, "_machine_orders_cache", None)
        if cache is None:
            cache = [machine_order(column) for column in self.costs.T.tolist()]
            object.__setattr__(self, "_machine_orders_cache", cache)
        return cache

    def aggregate_rate(self, job_index: int) -> float:
        """Aggregate processing rate of job ``job_index`` over all machines.

        Under the divisible model, the fastest conceivable completion of the
        job uses every eligible machine in parallel; the combined rate is
        ``sum_i 1 / c[i, j]`` (fractions of job per second).
        """
        column = self.costs[:, job_index]
        finite = np.isfinite(column)
        return float(np.sum(1.0 / column[finite]))

    def lower_bound_flow(self, job_index: int) -> float:
        """A lower bound on the flow of job ``job_index`` in any divisible schedule.

        Even with the whole platform to itself the job needs
        ``1 / aggregate_rate`` seconds of wall-clock time after its release.
        """
        return 1.0 / self.aggregate_rate(job_index)

    def trivial_upper_bound_flow(self) -> float:
        """An upper bound on the optimal *maximum weighted flow*.

        Obtained from the schedule that processes jobs one after the other,
        each entirely on its fastest machine, in release-date order.  Useful
        as a safe right end for objective-value searches.
        """
        current_time = 0.0
        worst = 0.0
        for j, job in enumerate(self.jobs):
            start = max(current_time, job.release_date)
            completion = start + self.min_cost(j)
            current_time = completion
            worst = max(worst, job.weighted_flow(completion))
        return worst

    def describe(self) -> str:
        """Return a short human-readable description (used by examples)."""
        finite = np.isfinite(self.costs)
        restricted = int(np.sum(~finite))
        return (
            f"Instance with {self.num_jobs} jobs on {self.num_machines} machines "
            f"({restricted} forbidden job/machine pairs)"
        )

    def to_dict(self) -> Dict:
        """Serialise the instance to plain Python types (JSON-compatible)."""
        return {
            "jobs": [
                {
                    "name": job.name,
                    "release_date": job.release_date,
                    "weight": job.weight,
                    "size": job.size,
                    "databanks": sorted(job.databanks),
                }
                for job in self.jobs
            ],
            "machines": [
                {
                    "name": machine.name,
                    "cycle_time": machine.cycle_time,
                    "databanks": sorted(machine.databanks),
                }
                for machine in self.machines
            ],
            "costs": [
                [None if math.isinf(c) else float(c) for c in row] for row in self.costs
            ],
        }

    @staticmethod
    def from_dict(data: Dict) -> "Instance":
        """Rebuild an instance from :meth:`to_dict` output."""
        jobs = [
            Job(
                name=item["name"],
                release_date=item["release_date"],
                weight=item["weight"],
                size=item.get("size"),
                databanks=frozenset(item.get("databanks", ())),
            )
            for item in data["jobs"]
        ]
        machines = [
            Machine(
                name=item["name"],
                cycle_time=item.get("cycle_time", 1.0),
                databanks=frozenset(item.get("databanks", ())),
            )
            for item in data["machines"]
        ]
        costs = [
            [float("inf") if c is None else float(c) for c in row] for row in data["costs"]
        ]
        return Instance.from_costs(jobs, costs, machines)
