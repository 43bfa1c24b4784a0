"""In-house LP backend entry points (revised fast path + frozen tableau).

Until ISSUE 9 this module *was* the dense two-phase tableau simplex.  That
implementation is now frozen verbatim in :mod:`repro.lp._tableau_legacy` as
the cross-validation reference (no backend name selects it), and the public
entry points here route the in-house path to the sparse revised simplex of
:mod:`repro.lp.revised_simplex` — no more ``form.densified()`` on the way to
a solve.  The switch is semantic (degenerate programs may report a different
optimal vertex) and shipped with the ``CODE_EPOCH`` 2005.5 → 2005.6 bump.

``solve_with_simplex`` / ``solve_matrix_form`` keep their historical names
and signatures: every caller of the in-house backend (cross-validation
tests, :class:`repro.core.maxflow.FeasibilityProbe`,
:class:`repro.core.replanning.ReplanProbe`) picks up the fast path without
changes.  The tableau twins are re-exported as ``solve_with_tableau`` /
``solve_matrix_form_tableau``: the only way to reach the reference, used by
the cross-validation tests and the backend-ablation benches.
"""

from __future__ import annotations

from ._tableau_legacy import SimplexResult
from ._tableau_legacy import solve_matrix_form as solve_matrix_form_tableau
from ._tableau_legacy import solve_with_simplex as solve_with_tableau
from .model import LinearProgram
from .revised_simplex import solve_matrix_form as _solve_matrix_form_revised
from .solution import LPSolution
from .standard_form import MatrixForm, to_matrix_form

__all__ = [
    "solve_with_simplex",
    "solve_matrix_form",
    "solve_with_tableau",
    "solve_matrix_form_tableau",
    "SimplexResult",
]


def solve_with_simplex(model: LinearProgram, max_iterations: int = 20000) -> LPSolution:
    """Solve ``model`` with the in-house revised simplex.

    Parameters
    ----------
    model:
        The linear program to solve.
    max_iterations:
        Safety cap on simplex pivots (per phase).
    """
    return solve_matrix_form(
        to_matrix_form(model, sparse=True), max_iterations=max_iterations
    )


def solve_matrix_form(form: MatrixForm, max_iterations: int = 20000) -> LPSolution:
    """Solve an already-lowered :class:`MatrixForm` with the revised simplex.

    Sparse and dense forms are both accepted; sparse blocks are consumed
    as-is (the legacy tableau's densification step is retired on this path).
    """
    return _solve_matrix_form_revised(form, max_iterations=max_iterations)
