"""Deadline scheduling (Section 4.2, Lemma 1).

Given a release date ``r_j`` and a deadline ``d_j`` per job, System (2) of the
paper has a solution if and only if there exists a (divisible) schedule
executing every job within its window ``[r_j, d_j]``.  The same system
augmented with the per-job interval constraints (5b) characterises
*preemptive* feasibility (Section 4.4).

This module exposes both the feasibility test and, when the system is
feasible, an explicit witness schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..exceptions import InvalidInstanceError
from ..lp.backends import canonical_backend, solve_form
from .affine import Affine
from .formulations import (
    build_allocation_model,
    divisible_schedule_from_solution,
    preemptive_schedule_from_solution,
)
from .instance import Instance
from .intervals import build_constant_intervals
from .schedule import Schedule
from .tolerances import ABS_TOL, lt

__all__ = ["DeadlineFeasibility", "check_deadline_feasibility"]

@dataclass(frozen=True)
class DeadlineFeasibility:
    """Outcome of a deadline-feasibility test.

    Attributes
    ----------
    feasible:
        ``True`` when a schedule meeting every deadline exists.
    schedule:
        A witness schedule (``None`` when infeasible or when the caller asked
        not to build one).
    num_intervals, lp_variables, lp_constraints:
        Size of the linear system, recorded for the scaling benches.
    backend:
        LP backend label, using the same canonical names whether or not a
        solver was actually reached (so bench records stay well-formed even
        for trivially-rejected systems).
    """

    feasible: bool
    schedule: Optional[Schedule]
    num_intervals: int
    lp_variables: int
    lp_constraints: int
    backend: str


def check_deadline_feasibility(
    instance: Instance,
    deadlines: Sequence[float],
    *,
    preemptive: bool = False,
    build_schedule: bool = True,
    backend: str = "scipy",
) -> DeadlineFeasibility:
    """Decide whether every job can be completed within ``[r_j, d_j]``.

    Parameters
    ----------
    instance:
        The scheduling instance.
    deadlines:
        One deadline per job, in the instance's job order.
    preemptive:
        ``False`` (default): divisible-load model, System (2).
        ``True``: preemptive model, System (2) + the per-job interval
        constraints, with the witness rebuilt via Lawler–Labetoulle.
    build_schedule:
        When ``False`` no witness schedule is materialised even if the system
        is feasible (cheaper; used by the milestone binary search).
    backend:
        LP backend (any alias accepted by
        :func:`repro.lp.backends.canonical_backend`).

    Returns
    -------
    DeadlineFeasibility
    """
    label = canonical_backend(backend)  # raises on unknown names
    if len(deadlines) != instance.num_jobs:
        raise InvalidInstanceError(
            f"expected {instance.num_jobs} deadlines, got {len(deadlines)}"
        )
    for job, deadline in zip(instance.jobs, deadlines):
        if lt(deadline, job.release_date, tol=ABS_TOL):
            # A deadline strictly before the release date (beyond the shared
            # numerical tolerance) makes the instance trivially infeasible;
            # report it without bothering the LP solver.  Deadlines within
            # tolerance of the release date go through the LP like any other
            # borderline system.
            return DeadlineFeasibility(
                feasible=False,
                schedule=None,
                num_intervals=0,
                lp_variables=0,
                lp_constraints=0,
                backend=label,
            )

    epochal_times = list(instance.release_dates) + [float(d) for d in deadlines]
    intervals = build_constant_intervals(epochal_times)
    deadline_functions = [Affine.const(float(d)) for d in deadlines]

    alloc = build_allocation_model(
        instance,
        intervals,
        deadlines=deadline_functions,
        objective_bounds=None,
        sample_objective=0.0,
        preemptive=preemptive,
    )
    solution = solve_form(alloc.form, backend)

    if not solution.is_optimal:
        return DeadlineFeasibility(
            feasible=False,
            schedule=None,
            num_intervals=len(intervals),
            lp_variables=alloc.form.num_variables,
            lp_constraints=alloc.form.num_constraints,
            backend=solution.backend,
        )

    schedule: Optional[Schedule] = None
    if build_schedule:
        if preemptive:
            schedule = preemptive_schedule_from_solution(alloc, solution)
        else:
            schedule = divisible_schedule_from_solution(alloc, solution)

    return DeadlineFeasibility(
        feasible=True,
        schedule=schedule,
        num_intervals=len(intervals),
        lp_variables=alloc.form.num_variables,
        lp_constraints=alloc.form.num_constraints,
        backend=solution.backend,
    )
