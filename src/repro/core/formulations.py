"""Shared machinery for building the paper's linear programs.

Systems (2), (3) and (5) of the paper and Linear Program (1) share the same
skeleton: allocation variables ``alpha[i, j, t]`` (the fraction of job ``j``
processed by machine ``i`` during interval ``I_t``), release-date and
deadline restrictions that simply *remove* variables, per-interval resource
constraints and per-job completion constraints.  This module builds that
skeleton once so that the individual solvers (:mod:`repro.core.deadline`,
:mod:`repro.core.makespan`, :mod:`repro.core.maxflow`,
:mod:`repro.core.replanning`) only state what is specific to them.

The skeleton is lowered straight to the CSR
:class:`~repro.lp.standard_form.MatrixForm` both LP backends consume: one
boolean mask of the allowed ``alpha[i, j, t]`` (:func:`allowed_mask`) fixes
the column order and the row layout (:func:`inequality_layout`), and numpy
scatters the coefficients — no modelling objects and no per-variable Python
objects.  The result is bit-identical to stating the same program through
the expression DSL of ``tests/reference/lp`` and lowering it with its
``to_matrix_form`` (``sparse=True``); the test suite keeps that symbolic
statement as the frozen reference and checks the equality across the
scenario grid.

The same module also converts LP solutions back into concrete
:class:`~repro.core.schedule.Schedule` objects:

* in the divisible model the fractions of an interval are simply laid out
  sequentially on each machine (any order is valid, as the paper notes);
* in the preemptive model the per-interval allocation matrix is handed to the
  Lawler–Labetoulle reconstruction so that no job ever runs on two machines
  simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..lp import LPSolution, MatrixForm
from .affine import Affine
from .instance import Instance
from .intervals import TimeInterval
from .lawler_labetoulle import build_preemptive_pieces
from .schedule import Schedule
from .tolerances import ABS_TOL

__all__ = [
    "AllocationModel",
    "InequalityLayout",
    "allowed_mask",
    "build_allocation_model",
    "divisible_schedule_from_solution",
    "inequality_layout",
    "preemptive_schedule_from_solution",
]

#: Allocation fractions below this threshold are dropped when building schedules.
_FRACTION_DUST = 1e-10


@dataclass
class AllocationModel:
    """A lowered linear program over allocation variables ``alpha[i, j, t]``.

    Attributes
    ----------
    form:
        The CSR :class:`~repro.lp.standard_form.MatrixForm` handed to the
        backends.  Columns are ``F`` first (when there is an objective
        variable), then the allowed ``alpha[i, j, t]`` in ``(t, j, i)``
        order; see :func:`build_allocation_model` for the row order.
    instance:
        The scheduling instance.
    intervals:
        The time intervals indexing the allocation variables.
    allowed:
        The ``(intervals, jobs, machines)`` boolean mask of the allowed
        variables (:func:`allowed_mask`).
    variables:
        Mapping ``(machine_index, job_index, interval_index) -> column``;
        only *allowed* combinations are present.
    objective_column:
        Column of the ``F`` variable of System (3)/(5) (``Delta_n`` in
        Linear Program (1)), or ``None`` for fixed-deadline systems.
    sample_objective:
        The objective value used to order the (possibly affine) epochal times.
    """

    form: MatrixForm
    instance: Instance
    intervals: List[TimeInterval]
    allowed: np.ndarray
    variables: Dict[Tuple[int, int, int], int]
    objective_column: Optional[int] = None
    sample_objective: float = 0.0

    def allocation(self, solution: LPSolution) -> Dict[Tuple[int, int, int], float]:
        """Extract the non-negligible allocation fractions from a solution."""
        values: Dict[Tuple[int, int, int], float] = {}
        for key, column in self.variables.items():
            value = solution.values.get(column, 0.0)
            if value > _FRACTION_DUST:
                values[key] = value
        return values


class InequalityLayout(NamedTuple):
    """Where every ``alpha`` coefficient of the inequality block comes from.

    Rows are the capacity rows by ``(t, i)``, then (preemptive model only)
    the job-window rows by ``(t, j)``; a row exists only when it holds at
    least one allowed variable.  Entries are listed in CSR order (row by
    row, ascending column within a row) and exclude the ``F`` column.
    """

    #: Interval of every row (its right-hand side is that interval's length).
    row_intervals: np.ndarray
    #: Number of ``alpha`` entries in every row.
    row_sizes: np.ndarray
    #: ``(machine, job, interval)`` of every entry; the coefficient is
    #: ``c[machine, job]``.
    machines: np.ndarray
    jobs: np.ndarray
    intervals: np.ndarray


def allowed_mask(
    instance: Instance,
    intervals: Sequence[TimeInterval],
    deadlines: Optional[Sequence[Affine]] = None,
    sample_objective: float = 0.0,
    tol: float = ABS_TOL,
) -> np.ndarray:
    """Decide structurally which ``alpha[i, j, t]`` may be non-zero.

    Returns the ``(len(intervals), num_jobs, num_machines)`` boolean mask.
    Encodes constraints (2a)/(2b) (equivalently (3b)/(3c), (5d)/(5e)) of the
    paper: the job must be released no later than the interval starts and, if
    it has a deadline, the interval must end no later than the deadline, both
    up to ``tol`` and evaluated at ``sample_objective``.  Machines that cannot
    process the job at all (infinite ``c_{i,j}``) are excluded as well.
    """
    lower = np.array([interval.lower_at(sample_objective) for interval in intervals], dtype=float)
    upper = np.array([interval.upper_at(sample_objective) for interval in intervals], dtype=float)
    release = np.array(instance.release_dates, dtype=float)
    mask = ~(release[None, :] > lower[:, None] + tol)
    if deadlines is not None:
        due = np.array([deadline(sample_objective) for deadline in deadlines], dtype=float)
        mask &= ~(due[None, :] < upper[:, None] - tol)
    return mask[:, :, None] & np.isfinite(instance.costs).T[None, :, :]


def inequality_layout(allowed: np.ndarray, preemptive: bool) -> InequalityLayout:
    """The row and entry layout of the inequality block for ``allowed``."""
    # Capacity rows (t, i): entries over ascending j.
    by_machine = allowed.transpose(0, 2, 1)
    row_mask = by_machine.any(axis=2)
    row_intervals = [np.nonzero(row_mask)[0]]
    row_sizes = [by_machine.sum(axis=2)[row_mask]]
    t, i, j = np.nonzero(by_machine)
    entries = [(i, j, t)]
    if preemptive:
        # Job-window rows (t, j): entries over ascending i.
        row_mask = allowed.any(axis=2)
        row_intervals.append(np.nonzero(row_mask)[0])
        row_sizes.append(allowed.sum(axis=2)[row_mask])
        t, j, i = np.nonzero(allowed)
        entries.append((i, j, t))
    return InequalityLayout(
        row_intervals=np.concatenate(row_intervals),
        row_sizes=np.concatenate(row_sizes),
        machines=np.concatenate([entry[0] for entry in entries]),
        jobs=np.concatenate([entry[1] for entry in entries]),
        intervals=np.concatenate([entry[2] for entry in entries]),
    )


def build_allocation_model(
    instance: Instance,
    intervals: Sequence[TimeInterval],
    deadlines: Optional[Sequence[Affine]] = None,
    objective_bounds: Optional[Tuple[float, Optional[float]]] = None,
    sample_objective: float = 0.0,
    preemptive: bool = False,
    tol: float = ABS_TOL,
) -> AllocationModel:
    """Build the LP skeleton shared by Linear Program (1) and Systems (2), (3), (5).

    The program minimises ``F`` (or the constant 0) subject to, in row order:

    * the resource constraints (1b)/(2c)/(3d)/(5c), one ``<=`` row per
      ``(t, i)`` holding an allowed variable:
      ``sum_j c_{i,j} alpha[i, j, t] - slope_t F <= constant_t`` for the
      interval length ``constant_t + slope_t F`` (the ``F`` entry is stored
      even when ``slope_t`` is 0);
    * in the preemptive model, the per-job constraints (5b), one ``<=`` row
      per ``(t, j)`` holding an allowed variable, same right-hand side;
    * the completion constraints (1d)/(2d)/(3e)/(5a), one ``==`` row per job:
      ``sum_{i,t} alpha[i, j, t] == 1``, or the infeasible row ``0 == -1``
      when the job has no allowed variable at all (so the solver reports
      infeasibility instead of silently dropping the job).

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
        lengths must be constant and the model has a constant zero objective
        (pure feasibility, System (2)).
    sample_objective:
        Objective value used to fix the epochal-time order (must lie strictly
        inside the milestone range when ``objective_bounds`` is given).
    preemptive:
        When ``True``, add the per-job per-interval constraints (5b) that
        forbid a job from receiving more work in an interval than the
        interval's length — the extra requirement of the preemptive
        (non-divisible) model.
    tol:
        Numerical tolerance for the structural allowed/forbidden decisions.
    """
    intervals = list(intervals)
    allowed = allowed_mask(instance, intervals, deadlines, sample_objective, tol)
    has_objective = objective_bounds is not None
    offset = 1 if has_objective else 0
    num_columns = offset + int(allowed.sum())
    columns = np.full(allowed.shape, -1, dtype=np.intp)
    columns[allowed] = np.arange(offset, num_columns)

    # Objective and bounds --------------------------------------------------
    c = np.zeros(num_columns)
    bounds = np.tile([0.0, 1.0], (num_columns, 1))
    if has_objective:
        lower, upper = objective_bounds
        lower = float(lower)
        upper = float("inf") if upper is None else float(upper)
        if lower > upper:
            raise ValueError(f"variable 'F' has empty domain [{lower}, {upper}]")
        c[0] = 1.0
        bounds[0] = (lower, upper)

    # Resource (1b)/(2c)/(3d)/(5c) and job-window (5b) rows ---------------------
    layout = inequality_layout(allowed, preemptive)
    lengths = [interval.length() for interval in intervals]
    rows = layout.row_intervals
    constant = np.array([length.constant for length in lengths], dtype=float)[rows]
    slope = np.array([length.slope for length in lengths], dtype=float)[rows]
    row_nnz = layout.row_sizes + offset
    indptr = np.zeros(row_nnz.size + 1, dtype=np.intp)
    np.cumsum(row_nnz, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.intp)
    data = np.empty(indptr[-1])
    is_alpha = np.ones(indptr[-1], dtype=bool)
    # The float operations below are the ones the expression DSL performs
    # when it states ``usage <= constant + slope * F`` and moves everything to
    # the left-hand side, so even signed zeros match the symbolic lowering.
    if has_objective:
        heads = indptr[:-1]
        is_alpha[heads] = False
        indices[heads] = 0
        data[heads] = 0.0 - slope
        b_ub = -(0.0 - (0.0 * slope + constant))
    else:
        if np.any(slope != 0.0):
            raise ValueError(
                "interval length depends on the objective but no objective variable was created"
            )
        b_ub = -(0.0 - constant)
    indices[is_alpha] = columns[layout.intervals, layout.jobs, layout.machines]
    data[is_alpha] = instance.costs[layout.machines, layout.jobs]
    a_ub = sp.csr_matrix((data, indices, indptr), shape=(rows.size, num_columns))

    # Completion rows (1d)/(2d)/(3e)/(5a) ------------------------------------
    by_job = allowed.transpose(1, 0, 2)
    eq_sizes = by_job.sum(axis=(1, 2))
    eq_indptr = np.zeros(instance.num_jobs + 1, dtype=np.intp)
    np.cumsum(eq_sizes, out=eq_indptr[1:])
    a_eq = sp.csr_matrix(
        (np.ones(eq_indptr[-1]), columns.transpose(1, 0, 2)[by_job], eq_indptr),
        shape=(instance.num_jobs, num_columns),
    )
    b_eq = np.where(eq_sizes > 0, 1.0, -1.0)

    form = MatrixForm(
        c=c,
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
    )
    t, j, i = np.nonzero(allowed)
    variables = dict(zip(zip(i.tolist(), j.tolist(), t.tolist()), range(offset, num_columns)))
    return AllocationModel(
        form=form,
        instance=instance,
        intervals=intervals,
        allowed=allowed,
        variables=variables,
        objective_column=0 if has_objective else None,
        sample_objective=sample_objective,
    )


# --------------------------------------------------------------------------- #
# Schedule reconstruction                                                     #
# --------------------------------------------------------------------------- #
def divisible_schedule_from_solution(
    alloc: AllocationModel,
    solution: LPSolution,
    objective_value: float = 0.0,
) -> Schedule:
    """Build a divisible schedule from an allocation solution.

    Inside every interval the fractions assigned to a machine are laid out
    one after the other starting at the interval's lower bound; the resource
    constraints guarantee they fit.  Jobs are laid out in index order — any
    order is valid in the divisible model, as the paper observes.
    """
    instance = alloc.instance
    schedule = Schedule(instance=instance, divisible=True)
    fractions = alloc.allocation(solution)

    for t, interval in enumerate(alloc.intervals):
        start_time = interval.lower_at(objective_value)
        for i in range(instance.num_machines):
            cursor = start_time
            for j in range(instance.num_jobs):
                fraction = fractions.get((i, j, t), 0.0)
                if fraction <= _FRACTION_DUST:
                    continue
                duration = fraction * float(instance.costs[i, j])
                schedule.add_piece(j, i, cursor, cursor + duration, fraction)
                cursor += duration
    return schedule.compact()


def preemptive_schedule_from_solution(
    alloc: AllocationModel,
    solution: LPSolution,
    objective_value: float = 0.0,
) -> Schedule:
    """Build a preemptive (non-divisible) schedule from an allocation solution.

    Every interval's allocation matrix is handed to the Lawler–Labetoulle
    reconstruction (:mod:`repro.core.lawler_labetoulle`); the per-interval
    schedules are then concatenated, exactly as in Section 4.4 of the paper.
    """
    instance = alloc.instance
    schedule = Schedule(instance=instance, divisible=False)
    fractions = alloc.allocation(solution)

    for t, interval in enumerate(alloc.intervals):
        window_start = interval.lower_at(objective_value)
        window_length = interval.length_at(objective_value)
        if window_length <= 0:
            continue

        times = np.zeros((instance.num_machines, instance.num_jobs))
        for (i, j, tt), fraction in fractions.items():
            if tt != t:
                continue
            times[i, j] = fraction * float(instance.costs[i, j])
        if times.sum() <= _FRACTION_DUST:
            continue

        # LP rounding can leave row/column sums a hair above the window
        # length; rescale the whole matrix by the (tiny) excess so that the
        # Lawler-Labetoulle preconditions hold exactly.
        max_load = max(times.sum(axis=1).max(), times.sum(axis=0).max())
        if max_load > window_length:
            relative_excess = (max_load - window_length) / max(window_length, 1e-30)
            if relative_excess > 1e-4:
                raise ValueError(
                    "allocation exceeds the interval length by more than the LP tolerance "
                    f"({max_load:.9g} > {window_length:.9g})"
                )
            times *= window_length / max_load

        for machine_index, job_index, start, end in build_preemptive_pieces(
            times, window_length, window_start
        ):
            cost = float(instance.costs[machine_index, job_index])
            schedule.add_piece(job_index, machine_index, start, end, (end - start) / cost)

    return schedule.compact()
