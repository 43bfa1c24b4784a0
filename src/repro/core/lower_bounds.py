"""A closed-form lower bound for the paper's objective.

The LP solvers return exact optima, but a cheap closed-form lower bound is
still valuable: :class:`~repro.core.maxflow.FeasibilityProbe` answers every
probe below it as infeasible without solving an LP.  The bound is valid for the
*divisible* model (and therefore also for the preemptive model, which is
more constrained): even with the whole platform to itself, job ``j`` cannot
finish before ``r_j + 1 / (sum_i 1/c_{i,j})``, so its weighted flow is at
least ``w_j / (sum_i 1/c_{i,j})``.
"""

from __future__ import annotations

from typing import List

from .instance import Instance

__all__ = [
    "max_weighted_flow_lower_bound",
]


def max_weighted_flow_lower_bound(instance: Instance) -> float:
    """Closed-form lower bound on the optimal maximum weighted flow.

    Uses the per-job fluid bound: ``w_j * (fluid completion - r_j)``.
    """
    bounds: List[float] = []
    for j, job in enumerate(instance.jobs):
        bounds.append(job.weight * instance.lower_bound_flow(j))
    return max(bounds)


