"""FROZEN dense two-phase tableau simplex — the cross-validation reference.

This is the in-house backend the revised simplex replaced, frozen verbatim
(like :mod:`tests.reference.stream_legacy` and
``benchmarks/_seed_engine.py``): the production in-house path lives in
:mod:`repro.lp.revised_simplex`, and no backend name selects this tableau.
Tests and ``benchmarks/bench_lp_backends.py`` call :func:`solve_matrix_form`
directly on a :class:`MatrixForm` so the revised solver can always be
cross-checked against the implementation the earliest optima were derived
with.  Do not optimise or "fix" this file; semantic changes belong in the
revised solver (with a ``CODE_EPOCH`` bump).

The original module docstring follows.

This backend exists for two reasons:

1. **Self-containedness** — the reproduction implements its whole algorithmic
   chain from scratch; the LP solver the paper relies on is part of that
   chain.  SciPy/HiGHS remains the production backend, but every optimum used
   in the tests can be re-derived by this independent implementation.
2. **Cross-validation** — the backend-ablation bench (E7 in DESIGN.md) and the
   property tests compare the two backends on randomly generated programs.

The implementation is a textbook dense tableau simplex:

* general bounds are removed by shifting / splitting variables so that every
  variable is non-negative;
* inequalities receive slack variables;
* a phase-1 problem with artificial variables finds a basic feasible point;
* phase 2 optimises the true objective;
* Bland's rule is used throughout, which guarantees termination at the cost
  of speed — acceptable because this backend only targets small programs.

The complexity is exponential in the worst case but the LPs built by the
scheduling modules for cross-validation purposes have at most a few hundred
variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.lp.solution import LPSolution, LPStatus
from repro.lp.standard_form import MatrixForm, solve_constant_form
from repro.obs.metrics import get_recorder

__all__ = ["solve_matrix_form", "SimplexResult"]

_EPS = 1e-9

#: Constraint coefficients below this magnitude are dropped before the solve,
#: mirroring the HiGHS presolve "small matrix value" threshold.  A pivot on a
#: near-zero coefficient divides its whole row by it, amplifying rounding dirt
#: into bound violations far above the feasibility tolerances — and with
#: box-bounded variables such a coefficient's contribution is below every
#: tolerance anyway, so the two backends disagree on which vertex is optimal
#: unless both drop it.
_COEFF_DROP = 1e-9


@dataclass
class SimplexResult:
    """Raw result of a tableau solve (before mapping back to model variables)."""

    status: LPStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int
    message: str = ""


# --------------------------------------------------------------------------- #
# Bound removal                                                               #
# --------------------------------------------------------------------------- #
@dataclass
class _BoundMapping:
    """How an original variable maps onto the non-negative solver variables.

    ``kind`` is one of:

    * ``"shift"``   — ``x = lo + y``         (finite lower bound)
    * ``"reflect"`` — ``x = up - y``         (only an upper bound)
    * ``"split"``   — ``x = y_pos - y_neg``  (free variable)
    """

    kind: str
    column: int
    column2: int = -1
    offset: float = 0.0


def _remove_bounds(form: MatrixForm) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                              np.ndarray, List[_BoundMapping], float]:
    """Rewrite the problem over non-negative variables.

    Returns ``(c, a_ub, b_ub, a_eq, b_eq, mappings, objective_shift)`` where
    the matrices are expressed over the new variables and ``objective_shift``
    is the constant added to the objective by the substitutions.
    """
    n = form.num_variables
    mappings: List[_BoundMapping] = []
    columns_per_var: List[List[Tuple[int, float]]] = []  # (new column, multiplier)
    offsets = np.zeros(n)
    next_col = 0

    extra_ub_rows: List[Tuple[int, float]] = []  # (original var index, upper bound on shifted var)

    for j in range(n):
        lower, upper = form.bounds[j]
        if np.isfinite(lower):
            mapping = _BoundMapping(kind="shift", column=next_col, offset=lower)
            columns_per_var.append([(next_col, 1.0)])
            offsets[j] = lower
            if np.isfinite(upper):
                extra_ub_rows.append((j, upper - lower))
            next_col += 1
        elif np.isfinite(upper):
            mapping = _BoundMapping(kind="reflect", column=next_col, offset=upper)
            columns_per_var.append([(next_col, -1.0)])
            offsets[j] = upper
            next_col += 1
        else:
            mapping = _BoundMapping(kind="split", column=next_col, column2=next_col + 1)
            columns_per_var.append([(next_col, 1.0), (next_col + 1, -1.0)])
            next_col += 2
        mappings.append(mapping)

    total_cols = next_col

    def expand(matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[0] == 0:
            return np.zeros((0, total_cols))
        out = np.zeros((matrix.shape[0], total_cols))
        for j in range(n):
            col = matrix[:, j]
            for new_col, mult in columns_per_var[j]:
                out[:, new_col] += mult * col
        return out

    a_ub = expand(form.a_ub)
    b_ub = form.b_ub - form.a_ub @ offsets if form.a_ub.shape[0] else form.b_ub.copy()
    a_eq = expand(form.a_eq)
    b_eq = form.b_eq - form.a_eq @ offsets if form.a_eq.shape[0] else form.b_eq.copy()

    # Upper bounds on shifted variables become explicit <= rows.
    if extra_ub_rows:
        rows = np.zeros((len(extra_ub_rows), total_cols))
        rhs = np.zeros(len(extra_ub_rows))
        for k, (j, bound) in enumerate(extra_ub_rows):
            new_col, mult = columns_per_var[j][0]
            rows[k, new_col] = mult
            rhs[k] = bound
        a_ub = np.vstack([a_ub, rows]) if a_ub.shape[0] else rows
        b_ub = np.concatenate([b_ub, rhs]) if b_ub.shape[0] else rhs

    c = np.zeros(total_cols)
    for j in range(n):
        for new_col, mult in columns_per_var[j]:
            c[new_col] += mult * form.c[j]
    objective_shift = float(form.c @ offsets)

    return c, a_ub, b_ub, a_eq, b_eq, mappings, objective_shift


def _recover_original(x_new: np.ndarray, mappings: List[_BoundMapping]) -> np.ndarray:
    """Map a solution over the non-negative variables back to the originals."""
    x = np.zeros(len(mappings))
    for j, mapping in enumerate(mappings):
        if mapping.kind == "shift":
            x[j] = mapping.offset + x_new[mapping.column]
        elif mapping.kind == "reflect":
            x[j] = mapping.offset - x_new[mapping.column]
        else:  # split
            x[j] = x_new[mapping.column] - x_new[mapping.column2]
    return x


# --------------------------------------------------------------------------- #
# Tableau machinery                                                           #
# --------------------------------------------------------------------------- #
def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the tableau so that column ``col`` becomes basic in row ``row``."""
    pivot_value = tableau[row, col]
    tableau[row, :] /= pivot_value
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]
    basis[row] = col


def _simplex_iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    num_structural: int,
    max_iterations: int,
) -> Tuple[str, int]:
    """Run Bland-rule simplex iterations on a tableau in canonical form.

    The last row of the tableau is the (reduced-cost) objective row and the
    last column is the right-hand side.  Returns ``(status, iterations)``
    where status is ``"optimal"``, ``"unbounded"`` or ``"iteration_limit"``.
    """
    num_rows = tableau.shape[0] - 1
    iterations = 0
    while iterations < max_iterations:
        objective_row = tableau[-1, :num_structural]
        entering = -1
        for j in range(num_structural):
            if objective_row[j] < -_EPS:
                entering = j
                break  # Bland's rule: smallest index
        if entering < 0:
            return "optimal", iterations

        # Ratio test (Bland: smallest basis index breaks ties).
        best_ratio = np.inf
        leaving = -1
        for i in range(num_rows):
            coeff = tableau[i, entering]
            if coeff > _EPS:
                # A feasible tableau's right-hand sides are non-negative; a
                # slightly negative value is accumulated rounding dirt, and a
                # negative ratio would both pick the wrong leaving row and
                # drive the entering variable out of bounds.
                ratio = max(tableau[i, -1], 0.0) / coeff
                if ratio < best_ratio - _EPS or (
                    abs(ratio - best_ratio) <= _EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded", iterations

        _pivot(tableau, basis, leaving, entering)
        iterations += 1
    return "iteration_limit", iterations


def _solve_nonnegative(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iterations: int,
) -> SimplexResult:
    """Solve ``min c.x`` s.t. ``a_ub x <= b_ub``, ``a_eq x == b_eq``, ``x >= 0``."""
    n = c.shape[0]
    if a_ub.size:
        a_ub = np.where(np.abs(a_ub) < _COEFF_DROP, 0.0, a_ub)
    if a_eq.size:
        a_eq = np.where(np.abs(a_eq) < _COEFF_DROP, 0.0, a_eq)
    num_ub = a_ub.shape[0]
    num_eq = a_eq.shape[0]
    m = num_ub + num_eq

    if m == 0:
        # No constraints: optimum is 0 for non-negative costs, unbounded otherwise.
        if np.any(c < -_EPS):
            return SimplexResult(LPStatus.UNBOUNDED, None, None, 0)
        return SimplexResult(LPStatus.OPTIMAL, np.zeros(n), 0.0, 0)

    # Build equality system with slacks:  [A_ub  I; A_eq  0] x_full = b
    a_full = np.zeros((m, n + num_ub))
    b_full = np.zeros(m)
    if num_ub:
        a_full[:num_ub, :n] = a_ub
        a_full[:num_ub, n:n + num_ub] = np.eye(num_ub)
        b_full[:num_ub] = b_ub
    if num_eq:
        a_full[num_ub:, :n] = a_eq
        b_full[num_ub:] = b_eq

    # Normalise negative right-hand sides.
    for i in range(m):
        if b_full[i] < 0:
            a_full[i, :] *= -1.0
            b_full[i] *= -1.0

    num_structural = n + num_ub

    # ---------------- Phase 1 ----------------
    num_artificial = m
    tableau = np.zeros((m + 1, num_structural + num_artificial + 1))
    tableau[:m, :num_structural] = a_full
    tableau[:m, num_structural:num_structural + num_artificial] = np.eye(m)
    tableau[:m, -1] = b_full
    # Phase-1 objective: minimise sum of artificials.
    tableau[-1, num_structural:num_structural + num_artificial] = 1.0
    basis = np.arange(num_structural, num_structural + num_artificial)
    # Price out the artificial columns from the objective row.
    for i in range(m):
        tableau[-1, :] -= tableau[i, :]

    status, iters1 = _simplex_iterate(
        tableau, basis, num_structural + num_artificial, max_iterations
    )
    if status == "iteration_limit":
        return SimplexResult(LPStatus.ERROR, None, None, iters1, "phase-1 iteration limit")
    phase1_value = -tableau[-1, -1]
    if phase1_value > 1e-7:
        return SimplexResult(LPStatus.INFEASIBLE, None, None, iters1)

    # Drive any artificial variables out of the basis when possible.
    for i in range(m):
        if basis[i] >= num_structural:
            pivot_col = -1
            for j in range(num_structural):
                if abs(tableau[i, j]) > _EPS:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
            # else: the row is redundant; the artificial stays basic at zero.

    # ---------------- Phase 2 ----------------
    # Rebuild the objective row for the true costs and zero out artificials.
    tableau2 = np.zeros((m + 1, num_structural + 1))
    tableau2[:m, :num_structural] = tableau[:m, :num_structural]
    tableau2[:m, -1] = tableau[:m, -1]
    tableau2[-1, :num_structural] = np.concatenate([c, np.zeros(num_ub)])
    # Price out basic columns.
    for i in range(m):
        col = basis[i]
        if col < num_structural and abs(tableau2[-1, col]) > 0.0:
            tableau2[-1, :] -= tableau2[-1, col] * tableau2[i, :]

    status, iters2 = _simplex_iterate(tableau2, basis, num_structural, max_iterations)
    total_iters = iters1 + iters2
    if status == "iteration_limit":
        return SimplexResult(LPStatus.ERROR, None, None, total_iters, "phase-2 iteration limit")
    if status == "unbounded":
        return SimplexResult(LPStatus.UNBOUNDED, None, None, total_iters)

    x_full = np.zeros(num_structural)
    for i in range(m):
        if basis[i] < num_structural:
            x_full[basis[i]] = tableau2[i, -1]
    x = x_full[:n]
    objective = float(c @ x)
    return SimplexResult(LPStatus.OPTIMAL, x, objective, total_iters)


# --------------------------------------------------------------------------- #
# Public entry point                                                          #
# --------------------------------------------------------------------------- #
def solve_matrix_form(form: MatrixForm, max_iterations: int = 20000) -> LPSolution:
    """Solve an already-lowered :class:`MatrixForm` with the tableau simplex.

    The tableau machinery is dense, so sparse forms (built for the HiGHS
    backend) are densified first — this keeps the simplex backend usable as a
    cross-validation oracle for the sparse lowering path and for the
    re-solve-with-new-bounds probes of :mod:`repro.core.maxflow`.
    """
    if form.num_variables == 0:
        # A variable-free program is feasible iff its constant rows hold.
        return solve_constant_form(form, "tableau")

    form = form.densified()

    c, a_ub, b_ub, a_eq, b_eq, mappings, objective_shift = _remove_bounds(form)
    raw = _solve_nonnegative(c, a_ub, b_ub, a_eq, b_eq, max_iterations)

    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("lp.solves")
        recorder.observe("lp.iterations", float(raw.iterations))

    if raw.status is not LPStatus.OPTIMAL:
        return LPSolution(status=raw.status, backend="tableau",
                          iterations=raw.iterations, message=raw.message)

    x_original = _recover_original(raw.x, mappings)
    values = {i: float(v) for i, v in enumerate(x_original)}
    minimised = raw.objective + objective_shift
    objective_value = form.restore_objective(minimised)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective_value=objective_value,
        values=values,
        backend="tableau",
        iterations=raw.iterations,
    )
