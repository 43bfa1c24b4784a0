"""Makespan minimisation in the divisible-load model (Section 4.1, Theorem 1).

The release dates cut the time axis into intervals; Linear Program (1) of the
paper decides how much of each job every machine processes in every interval.
The final interval is unbounded, so its usable length ``Delta_n`` is itself a
decision variable and the makespan equals ``r_n + Delta_n`` (no processing of
the last-released job can start before ``r_n``).

LP (1) is solved with HiGHS.  Any feasible optimal solution converts into an
explicit schedule by laying out, inside every interval, each machine's
fractions one after the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidInstanceError
from ..lp.scipy_backend import solve_matrix_form
from ..lp.solution import require_optimal
from .affine import Affine
from .formulations import (
    build_allocation_model,
    divisible_schedule_from_solution,
    preemptive_schedule_from_solution,
)
from .instance import Instance
from .intervals import TimeInterval, distinct_sorted
from .schedule import Schedule

__all__ = ["MakespanResult", "minimize_makespan"]


@dataclass(frozen=True)
class MakespanResult:
    """Result of a makespan optimisation.

    Attributes
    ----------
    makespan:
        Optimal makespan ``C_max``.
    schedule:
        A schedule achieving it.
    delta:
        Optimal length ``Delta_n`` of the final (open-ended) interval.
    num_intervals:
        Number of time intervals used by the LP.
    lp_variables, lp_constraints:
        Size of the linear program, recorded for the scaling benches.
    """

    makespan: float
    schedule: Schedule
    delta: float
    num_intervals: int
    lp_variables: int
    lp_constraints: int


def minimize_makespan(
    instance: Instance,
    *,
    preemptive: bool = False,
) -> MakespanResult:
    """Compute an optimal-makespan schedule for a divisible-load instance.

    Parameters
    ----------
    instance:
        The scheduling instance.
    preemptive:
        When ``False`` (default) the divisible-load model of the paper is
        used: a job may run on several machines simultaneously.  When
        ``True`` the per-job interval constraints of Section 4.4 are added
        and the schedule is rebuilt with the Lawler–Labetoulle construction,
        yielding an optimal *preemptive* makespan (an extension of the paper,
        in the spirit of Lawler & Labetoulle's original result).

    Returns
    -------
    MakespanResult
        The optimal makespan and a schedule achieving it.

    Raises
    ------
    InfeasibleProblemError
        Never for a valid instance — every instance admits a finite-makespan
        schedule; an infeasible LP therefore signals an internal error.
    """
    if instance.num_jobs == 0:
        raise InvalidInstanceError("cannot minimise the makespan of an empty instance")

    release_dates = distinct_sorted(instance.release_dates)
    last_release = release_dates[-1]

    # Bounded intervals between consecutive distinct release dates, plus the
    # final interval [r_n, r_n + Delta) whose length Delta is the LP objective.
    intervals = []
    for index in range(len(release_dates) - 1):
        intervals.append(
            TimeInterval(
                index=index,
                lower=Affine.const(release_dates[index]),
                upper=Affine.const(release_dates[index + 1]),
            )
        )
    intervals.append(
        TimeInterval(
            index=len(release_dates) - 1,
            lower=Affine.const(last_release),
            upper=Affine(last_release, 1.0),  # upper bound depends on Delta
        )
    )

    alloc = build_allocation_model(
        instance,
        intervals,
        deadlines=None,
        objective_bounds=(0.0, None),  # the "objective variable" plays the role of Delta_n
        sample_objective=1.0,
        preemptive=preemptive,
    )
    solution = require_optimal(solve_matrix_form(alloc.form), "makespan-LP1")
    delta = float(solution.values.get(alloc.objective_column, 0.0))

    if preemptive:
        schedule = preemptive_schedule_from_solution(alloc, solution, objective_value=delta)
    else:
        schedule = divisible_schedule_from_solution(alloc, solution, objective_value=delta)

    return MakespanResult(
        makespan=last_release + delta,
        schedule=schedule,
        delta=delta,
        num_intervals=len(intervals),
        lp_variables=alloc.form.num_variables,
        lp_constraints=alloc.form.num_constraints,
    )
