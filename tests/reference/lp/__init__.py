"""The LP expression DSL and the frozen tableau simplex (test references).

The scheduling modules build their programs straight in matrix form
(:mod:`repro.core.formulations`); the tests state the same programs through
this DSL as the reference those forms must equal, and cross-check the
revised simplex against the tableau.

:class:`LinearProgram`
    The model object (variables, constraints, objective, ``solve``).
:class:`Variable`, :class:`LinearExpression`, :func:`linear_sum`
    Building blocks for stating constraints.
:class:`Constraint`
    Normalised constraint object produced by comparisons.
:func:`to_matrix_form`
    Lowers a model to a :class:`repro.lp.MatrixForm` (dense or CSR blocks).
:func:`solution_value`
    Evaluates a variable or expression in an :class:`repro.lp.LPSolution`.
:func:`solve_matrix_form_tableau`
    The frozen dense tableau, on a lowered form.
"""

from .constraint import Constraint
from .expression import LinearExpression, Variable, as_expression, linear_sum, solution_value
from .lowering import to_matrix_form
from .model import LinearProgram
from .tableau import solve_matrix_form as solve_matrix_form_tableau

__all__ = [
    "Constraint",
    "LinearExpression",
    "LinearProgram",
    "Variable",
    "as_expression",
    "linear_sum",
    "solution_value",
    "solve_matrix_form_tableau",
    "to_matrix_form",
]
