"""SciPy/HiGHS backend for the LP modelling layer.

This is the production backend.  :func:`solve_matrix_form` hands a lowered
:class:`~repro.lp.standard_form.MatrixForm` to
:func:`scipy.optimize.linprog`; ``method="highs"`` consumes the CSR
``A_ub``/``A_eq`` blocks directly, non-HiGHS methods fall back to a dense
copy.  It is reached through :func:`repro.lp.backends.solve_form` (which
:meth:`repro.lp.LinearProgram.solve` and the one-shot solves of
:mod:`repro.core` use) and directly by the feasibility probes of
:mod:`repro.core.maxflow` and :mod:`repro.core.replanning`, which build the
matrix structure once and only swap right-hand sides / variable bounds
between solves.
"""

from __future__ import annotations

import warnings
from typing import Dict

from scipy.optimize import linprog

from ..obs.metrics import get_recorder
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, solve_constant_form

__all__ = ["solve_matrix_form"]

#: Set once the dense fallback for non-HiGHS methods has been reported, so a
#: probe loop re-solving thousands of forms warns exactly once per process.
_densify_warned = False

#: Mapping from scipy ``OptimizeResult.status`` codes to our statuses.
_SCIPY_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ERROR,       # iteration limit
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.ERROR,       # numerical difficulties
}


def solve_matrix_form(form: MatrixForm, method: str = "highs", **options) -> LPSolution:
    """Solve a lowered :class:`MatrixForm` with :func:`scipy.optimize.linprog`.

    ``form`` may hold dense or CSR constraint blocks.  Only the HiGHS family
    of methods consumes CSR directly; legacy methods (``"simplex"``,
    ``"revised simplex"``, ``"interior-point"``) force a dense copy of every
    constraint block, which on the lowering-bench LPs multiplies memory by the
    fill-in factor.  That fallback used to happen silently — it now emits a
    one-time :class:`RuntimeWarning` so callers know they lost the sparse
    path.
    """
    if form.num_variables == 0:
        # linprog rejects an empty cost vector; a variable-free program is
        # feasible iff its constant rows hold.
        return solve_constant_form(form, "scipy-highs")

    if form.is_sparse and not method.startswith("highs"):
        global _densify_warned
        if not _densify_warned:
            _densify_warned = True
            warnings.warn(
                f"scipy method {method!r} cannot consume sparse constraint "
                "blocks; densifying the lowered form (only HiGHS methods "
                "keep the CSR lowering). This warning is emitted once per "
                "process.",
                RuntimeWarning,
                stacklevel=2,
            )
        form = form.densified()

    result = linprog(
        c=form.c,
        A_ub=form.a_ub if form.num_inequalities else None,
        b_ub=form.b_ub if form.num_inequalities else None,
        A_eq=form.a_eq if form.num_equalities else None,
        b_eq=form.b_eq if form.num_equalities else None,
        bounds=form.bounds,
        method=method,
        options=options or None,
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

