"""In-house LP backend entry points (revised fast path + frozen tableau).

Until ISSUE 9 this module *was* the dense two-phase tableau simplex.  That
implementation is now frozen verbatim in :mod:`repro.lp._tableau_legacy` as
the cross-validation reference (no backend name selects it), and the public
entry points here route the in-house path to the sparse revised simplex of
:mod:`repro.lp.revised_simplex` — no more ``form.densified()`` on the way to
a solve.  The switch is semantic (degenerate programs may report a different
optimal vertex) and shipped with the ``CODE_EPOCH`` 2005.5 → 2005.6 bump.

``solve_matrix_form`` keeps its historical name and signature; it is what
:func:`repro.lp.backends.solve_form` (and through it
:meth:`repro.lp.LinearProgram.solve`) calls for the in-house backend.  The
tableau twins are re-exported as ``solve_with_tableau`` /
``solve_matrix_form_tableau``: the only way to reach the reference, used by
the cross-validation tests and the backend-ablation benches.
"""

from __future__ import annotations

from ._tableau_legacy import SimplexResult
from ._tableau_legacy import solve_matrix_form as solve_matrix_form_tableau
from ._tableau_legacy import solve_with_simplex as solve_with_tableau
from .revised_simplex import solve_matrix_form as _solve_matrix_form_revised
from .solution import LPSolution
from .standard_form import MatrixForm

__all__ = [
    "solve_matrix_form",
    "solve_with_tableau",
    "solve_matrix_form_tableau",
    "SimplexResult",
]


def solve_matrix_form(form: MatrixForm, max_iterations: int = 20000) -> LPSolution:
    """Solve an already-lowered :class:`MatrixForm` with the revised simplex.

    Sparse and dense forms are both accepted; sparse blocks are consumed
    as-is (the legacy tableau's densification step is retired on this path).
    """
    return _solve_matrix_form_revised(form, max_iterations=max_iterations)
