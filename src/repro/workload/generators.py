"""Random scheduling-instance generators.

The theoretical results of the paper hold for arbitrary unrelated machines;
the benches and property tests therefore exercise the solvers on two
families of random instances:

* **fully unrelated** — every ``c_{i,j}`` drawn independently;
* **uniform with restricted availabilities** — machine speeds times job sizes,
  with a random databank-style restriction mask (the GriPPS situation).

All generators take a seed and produce deterministic output for a given seed,
which the reproducibility of the benches relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.machine import Machine
from ..exceptions import WorkloadError

__all__ = [
    "ArrivalProcess",
    "random_unrelated_instance",
    "random_restricted_instance",
]


@dataclass(frozen=True)
class ArrivalProcess:
    """Description of a release-date process.

    Attributes
    ----------
    kind:
        ``"poisson"`` (exponential inter-arrivals), ``"uniform"`` (uniform over
        a horizon) or ``"batch"`` (all jobs released at time zero).
    rate:
        Mean arrival rate (jobs per second) for the Poisson process.
    horizon:
        Time horizon for the uniform process.
    """

    kind: str = "poisson"
    rate: float = 1.0
    horizon: float = 10.0

    def sample(self, count: int, rng: np.random.Generator) -> List[float]:
        """Draw ``count`` release dates (sorted, starting at or after zero)."""
        if count <= 0:
            raise WorkloadError("count must be positive")
        if self.kind == "poisson":
            if self.rate <= 0:
                raise WorkloadError("poisson arrival rate must be positive")
            gaps = rng.exponential(1.0 / self.rate, size=count)
            return list(np.cumsum(gaps))
        if self.kind == "uniform":
            if self.horizon < 0:
                raise WorkloadError("uniform arrival horizon must be non-negative")
            return sorted(float(v) for v in rng.uniform(0.0, self.horizon, size=count))
        if self.kind == "batch":
            return [0.0] * count
        raise WorkloadError(f"unknown arrival process kind {self.kind!r}")


def _make_jobs(
    release_dates: Sequence[float],
    sizes: Sequence[float],
    weights: Sequence[float],
) -> List[Job]:
    return [
        Job(
            name=f"J{index}",
            release_date=float(release),
            weight=float(weight),
            size=float(size),
        )
        for index, (release, size, weight) in enumerate(zip(release_dates, sizes, weights))
    ]


def random_unrelated_instance(
    num_jobs: int,
    num_machines: int,
    *,
    seed: Optional[int] = None,
    arrivals: Optional[ArrivalProcess] = None,
    cost_range: tuple = (1.0, 20.0),
    forbidden_probability: float = 0.0,
    weight_range: tuple = (0.5, 2.0),
) -> Instance:
    """Generate a fully unrelated instance with independent random costs.

    Parameters
    ----------
    num_jobs, num_machines:
        Instance dimensions.
    seed:
        RNG seed.
    arrivals:
        Release-date process (Poisson with rate 1 by default).
    cost_range:
        Uniform range for the finite ``c_{i,j}``.
    forbidden_probability:
        Probability that a ``c_{i,j}`` is infinite; every job is guaranteed at
        least one finite entry.
    weight_range:
        Uniform range for the job weights.
    """
    if num_jobs <= 0 or num_machines <= 0:
        raise WorkloadError("instance dimensions must be positive")
    if not 0.0 <= forbidden_probability < 1.0:
        raise WorkloadError("forbidden_probability must be in [0, 1)")
    rng = np.random.default_rng(seed)
    arrivals = arrivals or ArrivalProcess(kind="poisson", rate=1.0)

    release_dates = arrivals.sample(num_jobs, rng)
    weights = rng.uniform(weight_range[0], weight_range[1], size=num_jobs)
    sizes = rng.uniform(cost_range[0], cost_range[1], size=num_jobs)
    jobs = _make_jobs(release_dates, sizes, weights)

    costs = rng.uniform(cost_range[0], cost_range[1], size=(num_machines, num_jobs))
    if forbidden_probability > 0:
        mask = rng.random(size=costs.shape) < forbidden_probability
        costs = np.where(mask, np.inf, costs)
        # Guarantee at least one eligible machine per job.
        for j in range(num_jobs):
            if not np.isfinite(costs[:, j]).any():
                machine = int(rng.integers(0, num_machines))
                costs[machine, j] = float(rng.uniform(cost_range[0], cost_range[1]))
    return Instance.from_costs(jobs, costs)


def random_restricted_instance(
    num_jobs: int,
    num_machines: int,
    *,
    seed: Optional[int] = None,
    arrivals: Optional[ArrivalProcess] = None,
    num_databanks: int = 4,
    replication: float = 0.5,
    size_range: tuple = (5.0, 50.0),
    cycle_time_range: tuple = (0.5, 2.0),
    stretch_weights: bool = False,
) -> Instance:
    """Generate a uniform-machines-with-restricted-availabilities instance.

    This is the GriPPS-shaped family: machine ``i`` has a cycle time ``c_i``,
    job ``j`` has a size ``W_j`` and requires one databank; ``c_{i,j}`` equals
    ``W_j c_i`` where the databank is hosted and ``+inf`` elsewhere.
    """
    if num_databanks <= 0:
        raise WorkloadError("num_databanks must be positive")
    if not 0.0 < replication <= 1.0:
        raise WorkloadError("replication must be in (0, 1]")
    rng = np.random.default_rng(seed)
    arrivals = arrivals or ArrivalProcess(kind="poisson", rate=1.0)

    banks = [f"bank{k}" for k in range(num_databanks)]
    hosted: List[set] = [set() for _ in range(num_machines)]
    for bank in banks:
        hosts = [i for i in range(num_machines) if rng.random() < replication]
        if not hosts:
            hosts = [int(rng.integers(0, num_machines))]
        for i in hosts:
            hosted[i].add(bank)

    machines = [
        Machine(
            name=f"M{i}",
            cycle_time=float(rng.uniform(cycle_time_range[0], cycle_time_range[1])),
            databanks=frozenset(hosted[i]),
        )
        for i in range(num_machines)
    ]

    release_dates = arrivals.sample(num_jobs, rng)
    jobs = []
    for index, release in enumerate(release_dates):
        size = float(rng.uniform(size_range[0], size_range[1]))
        weight = 1.0 / size if stretch_weights else float(rng.uniform(0.5, 2.0))
        bank = banks[int(rng.integers(0, num_databanks))]
        jobs.append(
            Job(
                name=f"J{index}",
                release_date=float(release),
                weight=weight,
                size=size,
                databanks=frozenset({bank}),
            )
        )

    from ..core.machine import Platform

    return Instance.from_platform(jobs, Platform(machines))


