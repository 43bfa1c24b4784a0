"""SciPy/HiGHS backend for the LP layer.

This is the production backend.  :func:`solve_matrix_form` hands a lowered
:class:`~repro.lp.standard_form.MatrixForm` to
:func:`scipy.optimize.linprog` with ``method="highs"``, which consumes the
CSR ``A_ub``/``A_eq`` blocks directly.  It is reached through
:func:`repro.lp.backends.solve_form` (which the one-shot feasibility solves
of :mod:`repro.core.deadline` use), directly by the makespan LP of
:mod:`repro.core.makespan`, and directly by the probes of
:mod:`repro.core.maxflow` and :mod:`repro.core.replanning`, which build the
matrix structure once and only swap right-hand sides / variable bounds
between solves.
"""

from __future__ import annotations

from typing import Dict

from scipy.optimize import linprog

from ..obs.metrics import get_recorder
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, solve_constant_form

__all__ = ["solve_matrix_form"]

#: Mapping from scipy ``OptimizeResult.status`` codes to our statuses.
_SCIPY_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,       # iteration limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,       # numerical difficulties
}


def solve_matrix_form(form: MatrixForm, *, presolve: bool = True) -> LPSolution:
    """Solve a lowered :class:`MatrixForm` with HiGHS through :func:`scipy.optimize.linprog`.

    ``form`` may hold dense or CSR constraint blocks; HiGHS consumes either.
    ``presolve=False`` switches HiGHS presolve off, which can misreport a
    feasible program as infeasible when its row bounds are of the order of
    the primal feasibility tolerance (``1e-7``).
    """
    if form.num_variables == 0:
        # linprog rejects an empty cost vector; a variable-free program is
        # feasible iff its constant rows hold.
        return solve_constant_form(form, "scipy-highs")

    result = linprog(
        c=form.c,
        A_ub=form.a_ub if form.num_inequalities else None,
        b_ub=form.b_ub if form.num_inequalities else None,
        A_eq=form.a_eq if form.num_equalities else None,
        b_eq=form.b_eq if form.num_equalities else None,
        bounds=form.bounds,
        method="highs",
        options=None if presolve else {"presolve": False},
    )

    status = _SCIPY_STATUS.get(result.status, LPStatus.ERROR)
    if not result.success and status is LPStatus.OPTIMAL:
        status = LPStatus.ERROR

    values: Dict[int, float] = {}
    objective = None
    if status is LPStatus.OPTIMAL and result.x is not None:
        values = {i: float(v) for i, v in enumerate(result.x)}
        objective = form.restore_objective(float(result.fun))

    iterations = None
    nit = getattr(result, "nit", None)
    if nit is not None:
        try:
            iterations = int(nit)
        except (TypeError, ValueError):
            iterations = None

    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("lp.solves")
        if iterations is not None:
            recorder.observe("lp.iterations", float(iterations))

    return LPSolution(
        status=status,
        objective_value=objective,
        values=values,
        backend="scipy-highs",
        iterations=iterations,
        message=str(getattr(result, "message", "")),
    )

