"""HiGHS backend for the LP layer.

This is the production backend.  :func:`solve_matrix_form` hands a lowered
:class:`~repro.lp.standard_form.MatrixForm` straight to the HiGHS bindings
that scipy ships (``scipy.optimize._highspy._core``): one column-wise
matrix, one ``passModel`` (the overload that reads numpy arrays in place),
one ``run``.  It sets the options
:func:`scipy.optimize.linprog` with ``method="highs"`` sets and keeps
linprog's input checks and post-solve residual check, so its status, ``x``,
objective and iteration count are linprog's bit for bit
(``tests/lp/test_highs_equivalence.py`` holds it to that), without linprog's
per-call input cleaning, format conversions and option validation.

It is reached through :func:`repro.lp.backends.solve_form` (which the
one-shot feasibility solves of :mod:`repro.core.deadline` use), directly by
the makespan LP of :mod:`repro.core.makespan`, and directly by the probes of
:mod:`repro.core.maxflow` and :mod:`repro.core.replanning`, which build the
matrix structure once and only swap right-hand sides / variable bounds
between solves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

from ..obs.metrics import get_recorder
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, solve_constant_form

__all__ = ["solve_matrix_form"]

_MODEL = highs.HighsModelStatus

#: HiGHS model status → our status, as linprog maps it: a model HiGHS
#: refuses to load counts as infeasible, and any status not listed (an
#: iteration limit, "unbounded or infeasible", ...) is an error.
_STATUS = {
    _MODEL.kOptimal: LPStatus.OPTIMAL,
    _MODEL.kInfeasible: LPStatus.INFEASIBLE,
    _MODEL.kModelError: LPStatus.INFEASIBLE,
    _MODEL.kUnbounded: LPStatus.UNBOUNDED,
}

#: linprog's post-solve tolerance on bound and row residuals: ``10·sqrt(tol)``
#: with its default ``tol = 1e-9``.
_RESIDUAL_TOL = 10 * np.sqrt(1e-9)


def _options(presolve: bool) -> highs.HighsOptions:
    """The options linprog's ``method="highs"`` sets, and nothing else."""
    options = highs.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


_OPTIONS = {True: _options(True), False: _options(False)}


def _vector(name: str, values: np.ndarray, size: int) -> np.ndarray:
    """``values`` as a contiguous float64 vector; ``ValueError`` unless finite, of ``size``."""
    vector = np.ascontiguousarray(values, dtype=np.float64)
    if vector.shape != (size,):
        raise ValueError(f"{name} has shape {vector.shape}, expected ({size},)")
    if not np.isfinite(vector).all():
        raise ValueError(f"{name} must not contain inf or nan")
    return vector


def _stacked_csc(form: MatrixForm) -> sp.csc_matrix:
    """``[A_ub; A_eq]`` as one CSC matrix with linprog's entries and order.

    Stored entries of a sparse block stay (explicit zeros included) and
    zeros of a dense block go, as in linprog; duplicate entries are summed,
    as linprog's COO round trip sums them.  Stacking row-wise in CSR and
    converting once gives the same arrays as that round trip, in a fraction
    of its time.
    """
    n = form.num_variables
    blocks = (form.a_ub, form.a_eq)
    for name, block in zip(("A_ub", "A_eq"), blocks):
        if block.ndim != 2 or block.shape[1] != n:
            raise ValueError(f"{name} has shape {block.shape}, expected (m, {n})")
    stacked = sp.vstack([sp.csr_matrix(block, dtype=np.float64) for block in blocks], format="csr")
    stacked.sum_duplicates()
    return stacked.tocsc()


def solve_matrix_form(form: MatrixForm, *, presolve: bool = True) -> LPSolution:
    """Solve a lowered :class:`MatrixForm` with HiGHS.

    ``form`` may hold dense or CSR constraint blocks.  A NaN bound means no
    bound, as in linprog.  A non-finite cost, matrix entry or right-hand
    side, or a vector or block whose shape does not fit the form, raises
    ``ValueError``.  ``presolve=False`` switches
    HiGHS presolve off, which can misreport a feasible program as infeasible
    when its row bounds are of the order of the primal feasibility tolerance
    (``1e-7``).
    """
    if form.num_variables == 0:
        # HiGHS is not handed an empty model; a variable-free program is
        # feasible iff its constant rows hold.
        return solve_constant_form(form, "scipy-highs")

    n = form.num_variables
    cost = _vector("c", form.c, n)
    b_ub = _vector("b_ub", form.b_ub, form.a_ub.shape[0])
    b_eq = _vector("b_eq", form.b_eq, form.a_eq.shape[0])
    bounds = np.asarray(form.bounds, dtype=np.float64)
    if bounds.shape != (n, 2):
        raise ValueError(f"bounds has shape {bounds.shape}, expected ({n}, 2)")
    if np.isnan(bounds).any():
        # linprog reads a NaN bound as no bound.
        bounds = np.where(np.isnan(bounds), [-np.inf, np.inf], bounds)
    matrix = _stacked_csc(form)
    if not np.isfinite(matrix.data).all():
        raise ValueError("the constraint matrices must not contain inf or nan")
    num_ub = b_ub.shape[0]
    rhs = np.concatenate((b_ub, b_eq))
    model = (
        n,
        rhs.shape[0],
        matrix.nnz,
        int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize),
        0.0,  # objective offset
        cost,
        np.ascontiguousarray(bounds[:, 0]),
        np.ascontiguousarray(bounds[:, 1]),
        # kHighsInf is IEEE infinity, so ±inf bounds pass as they are.
        np.concatenate((np.full(num_ub, -highs.kHighsInf), b_eq)),
        rhs,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        np.zeros(n, dtype=np.int32),  # every column continuous
    )
    model_status, iterations, optimum = _run(model, presolve)

    status = _STATUS.get(model_status, LPStatus.ERROR)
    message = f"HiGHS model status {model_status.name}"
    if optimum is not None:
        x, row_values, objective = optimum
        if not _within_tolerance(np.array(x), objective, rhs - row_values, num_ub, bounds):
            status = LPStatus.ERROR
            message += f"; the solution misses its constraints by more than {_RESIDUAL_TOL:.2e}"

    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("lp.solves")
        recorder.observe("lp.iterations", float(iterations))

    if status is not LPStatus.OPTIMAL:
        return LPSolution(
            status=status, backend="scipy-highs", iterations=iterations, message=message
        )
    return LPSolution(
        status=status,
        objective_value=form.restore_objective(float(objective)),
        values=dict(enumerate(x)),
        backend="scipy-highs",
        iterations=iterations,
        message=message,
    )


def _run(
    model: tuple, presolve: bool
) -> Tuple[highs.HighsModelStatus, int, Optional[Tuple[List[float], np.ndarray, float]]]:
    """Pass the options and the model to a fresh HiGHS, run it, and read back
    what linprog reads: the model status, the iteration count and, for an
    optimum, ``x``, the row activities and the objective value."""
    solver = highs._Highs()
    if solver.passOptions(_OPTIONS[presolve]) == highs.HighsStatus.kError:
        return solver.getModelStatus(), 0, None
    if solver.passModel(*model) == highs.HighsStatus.kError:
        return _MODEL.kModelError, 0, None
    if solver.run() == highs.HighsStatus.kError:
        return solver.getModelStatus(), 0, None
    model_status = solver.getModelStatus()
    info = solver.getInfo()
    iterations = info.simplex_iteration_count or info.ipm_iteration_count
    if model_status != _MODEL.kOptimal:
        return model_status, iterations, None
    solution = solver.getSolution()
    optimum = solution.col_value, np.array(solution.row_value), info.objective_function_value
    return model_status, iterations, optimum


def _within_tolerance(
    x: np.ndarray, objective: float, residual: np.ndarray, num_ub: int, bounds: np.ndarray
) -> bool:
    """linprog's post-solve check: no NaN, every bound and row residual within tolerance."""
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(residual).any():
        return False
    slack, con = residual[:num_ub], residual[num_ub:]
    return bool(
        (x >= bounds[:, 0] - _RESIDUAL_TOL).all()
        and (x <= bounds[:, 1] + _RESIDUAL_TOL).all()
        and (slack >= -_RESIDUAL_TOL).all()
        and (np.abs(con) <= _RESIDUAL_TOL).all()
    )
