"""Frozen symbolic statement of the allocation LP skeleton (test reference).

This is the ``build_allocation_model`` the scheduling modules used before the
skeleton was lowered straight to CSR: every ``alpha[i, j, t]`` is a
:class:`~repro.lp.expression.Variable` of a :class:`~repro.lp.LinearProgram`
and every constraint is stated through the expression DSL, exactly as the
paper writes it.  Lowering this model with
``to_matrix_form(model, sparse=True)`` must give the production
:class:`~repro.core.formulations.AllocationModel` form bit for bit
(``test_allocation_lowering.py``).  Kept verbatim; do not edit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.affine import Affine
from repro.core.instance import Instance
from repro.core.intervals import TimeInterval
from repro.core.tolerances import ABS_TOL
from repro.lp import LinearProgram, LinearExpression, LPSolution, Variable, linear_sum

#: Allocation fractions below this threshold are dropped when building schedules.
_FRACTION_DUST = 1e-10


@dataclass
class AllocationModel:
    """A linear program over allocation variables ``alpha[i, j, t]``.

    Attributes
    ----------
    model:
        The underlying :class:`~repro.lp.model.LinearProgram`.
    instance:
        The scheduling instance.
    intervals:
        The time intervals indexing the allocation variables.
    variables:
        Mapping ``(machine_index, job_index, interval_index) -> Variable``;
        only *allowed* combinations are present.
    objective_variable:
        The ``F`` variable of System (3)/(5), or ``None`` for fixed-deadline
        systems.
    sample_objective:
        The objective value used to order the (possibly affine) epochal times.
    """

    model: LinearProgram
    instance: Instance
    intervals: List[TimeInterval]
    variables: Dict[Tuple[int, int, int], Variable] = field(default_factory=dict)
    objective_variable: Optional[Variable] = None
    sample_objective: float = 0.0

    def allocation(self, solution: LPSolution) -> Dict[Tuple[int, int, int], float]:
        """Extract the non-negligible allocation fractions from a solution."""
        values: Dict[Tuple[int, int, int], float] = {}
        for key, var in self.variables.items():
            value = solution.value(var)
            if value > _FRACTION_DUST:
                values[key] = value
        return values


def _is_allowed(
    instance: Instance,
    machine_index: int,
    job_index: int,
    interval: TimeInterval,
    deadline: Optional[Affine],
    sample_objective: float,
    tol: float,
) -> bool:
    """Decide structurally whether ``alpha[i, j, t]`` may be non-zero.

    Encodes constraints (2a)/(2b) (equivalently (3b)/(3c), (5d)/(5e)) of the
    paper: the job must be released no later than the interval starts and, if
    it has a deadline, the interval must end no later than the deadline.
    Machines that cannot process the job at all (infinite ``c_{i,j}``) are
    excluded as well.
    """
    if not math.isfinite(instance.costs[machine_index, job_index]):
        return False
    job = instance.jobs[job_index]
    if job.release_date > interval.lower_at(sample_objective) + tol:
        return False
    if deadline is not None and deadline(sample_objective) < interval.upper_at(sample_objective) - tol:
        return False
    return True


def build_allocation_model(
    instance: Instance,
    intervals: Sequence[TimeInterval],
    deadlines: Optional[Sequence[Affine]] = None,
    objective_bounds: Optional[Tuple[float, Optional[float]]] = None,
    sample_objective: float = 0.0,
    preemptive: bool = False,
    name: str = "",
    tol: float = ABS_TOL,
) -> AllocationModel:
    """Build the LP skeleton shared by Systems (2), (3) and (5).

    Parameters
    ----------
    instance:
        The scheduling instance.
    intervals:
        The time intervals (constant or affine bounds).
    deadlines:
        Per-job deadlines as affine functions of the objective, or ``None``
        when jobs have no deadlines (makespan-style formulations).
    objective_bounds:
        When given, a variable ``F`` with these ``(lower, upper)`` bounds is
        created, the interval lengths become affine expressions of ``F`` and
        the model minimises ``F`` (this is System (3)/(5)).  ``upper`` may be
        ``None`` for an unbounded search range.  When omitted, interval
        lengths are evaluated at ``sample_objective`` and the model has a
        constant zero objective (pure feasibility, System (2)).
    sample_objective:
        Objective value used to fix the epochal-time order (must lie strictly
        inside the milestone range when ``objective_bounds`` is given).
    preemptive:
        When ``True``, add the per-job per-interval constraints (5b) that
        forbid a job from receiving more work in an interval than the
        interval's length — the extra requirement of the preemptive
        (non-divisible) model.
    name:
        Model name for diagnostics.
    tol:
        Numerical tolerance for the structural allowed/forbidden decisions.
    """
    model = LinearProgram(name=name or "allocation", sense="min")
    alloc = AllocationModel(
        model=model,
        instance=instance,
        intervals=list(intervals),
        sample_objective=sample_objective,
    )

    # Objective variable F (System (3)/(5)) -------------------------------
    objective_var: Optional[Variable] = None
    if objective_bounds is not None:
        lower, upper = objective_bounds
        objective_var = model.add_variable(
            "F", lower=lower, upper=float("inf") if upper is None else upper
        )
        model.set_objective(objective_var)
        alloc.objective_variable = objective_var
    else:
        model.set_objective(0.0)

    # Allocation variables --------------------------------------------------
    for t, interval in enumerate(alloc.intervals):
        for j in range(instance.num_jobs):
            deadline = deadlines[j] if deadlines is not None else None
            for i in range(instance.num_machines):
                if _is_allowed(instance, i, j, interval, deadline, sample_objective, tol):
                    var = model.add_variable(f"alpha[{i},{j},{t}]", lower=0.0, upper=1.0)
                    alloc.variables[(i, j, t)] = var

    # Resource constraints (1b)/(2c)/(3d)/(5c) ------------------------------
    for t, interval in enumerate(alloc.intervals):
        length = interval.length()
        for i in range(instance.num_machines):
            terms = [
                alloc.variables[(i, j, t)] * float(instance.costs[i, j])
                for j in range(instance.num_jobs)
                if (i, j, t) in alloc.variables
            ]
            if not terms:
                continue
            usage = linear_sum(terms)
            model.add_constraint(
                _usage_constraint(usage, length, objective_var),
                name=f"capacity[m{i},t{t}]",
            )

    # Preemptive per-job constraints (5b) ------------------------------------
    if preemptive:
        for t, interval in enumerate(alloc.intervals):
            length = interval.length()
            for j in range(instance.num_jobs):
                terms = [
                    alloc.variables[(i, j, t)] * float(instance.costs[i, j])
                    for i in range(instance.num_machines)
                    if (i, j, t) in alloc.variables
                ]
                if not terms:
                    continue
                usage = linear_sum(terms)
                model.add_constraint(
                    _usage_constraint(usage, length, objective_var),
                    name=f"job_window[j{j},t{t}]",
                )

    # Completion constraints (1d)/(2d)/(3e)/(5a) ------------------------------
    for j in range(instance.num_jobs):
        terms = [
            alloc.variables[(i, j, t)]
            for t in range(len(alloc.intervals))
            for i in range(instance.num_machines)
            if (i, j, t) in alloc.variables
        ]
        if not terms:
            # The job cannot be scheduled anywhere within its window: encode
            # an explicitly infeasible constraint so the solver reports
            # infeasibility instead of silently dropping the job.
            model.add_constraint(
                LinearExpression({}, 1.0) == 0.0, name=f"completion[j{j}]-impossible"
            )
            continue
        model.add_constraint(linear_sum(terms) == 1.0, name=f"completion[j{j}]")

    return alloc


def _usage_constraint(usage, length: Affine, objective_var: Optional[Variable]):
    """Build ``usage <= length`` where ``length`` may depend on the objective variable."""
    if objective_var is not None:
        rhs = length.constant + length.slope * objective_var
    else:
        rhs = length.constant
        if length.slope != 0.0:
            raise ValueError(
                "interval length depends on the objective but no objective variable was created"
            )
    return usage <= rhs
