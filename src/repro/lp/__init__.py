"""Self-contained linear-programming layer (substrate S1).

The paper expresses all of its scheduling results as linear programs; this
subpackage provides the matrix form both solvers consume
(:class:`MatrixForm`), a small expression DSL to state programs in, and two
interchangeable solving backends (:mod:`repro.lp.backends` maps the accepted
names onto them and :func:`repro.lp.backends.solve_form` dispatches a form
to one):

* :mod:`repro.lp.scipy_backend` — SciPy's HiGHS wrapper (production default);
* :mod:`repro.lp.simplex` — the in-house sparse revised simplex, with warm
  re-solves for the replanning probes.

The frozen dense tableau in :mod:`repro.lp._tableau_legacy` is kept only as
a cross-validation reference for tests and benches.

The expression DSL (:class:`LinearProgram` and its building blocks, lowered by
:func:`to_matrix_form`) is the public modelling API and the test suite's
reference statement of the paper's programs.  It is not the production path:
the scheduling modules of :mod:`repro.core` build their allocation LPs
straight in matrix form (:mod:`repro.core.formulations`), bit-identical to the
DSL statement lowered with ``sparse=True``.

Public API
----------
:class:`MatrixForm`
    The lowered program (CSR or dense blocks, right-hand sides, bounds).
:class:`LinearProgram`
    The model object (variables, constraints, objective, ``solve``).
:class:`Variable`, :class:`LinearExpression`, :func:`linear_sum`
    Building blocks for stating constraints.
:class:`Constraint`
    Normalised constraint object produced by comparisons.
:class:`LPSolution`, :class:`LPStatus`
    Solve results.
"""

from .constraint import Constraint
from .expression import LinearExpression, Variable, as_expression, linear_sum
from .model import LinearProgram
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, to_matrix_form

__all__ = [
    "Constraint",
    "LinearExpression",
    "LinearProgram",
    "LPSolution",
    "LPStatus",
    "MatrixForm",
    "Variable",
    "as_expression",
    "linear_sum",
    "to_matrix_form",
]
