"""The matrix form both LP backends consume.

Both backends consume the same intermediate representation, a
:class:`MatrixForm`: a minimisation problem with

* an inequality block ``A_ub @ x <= b_ub`` (all ``<=`` and negated ``>=`` rows),
* an equality block ``A_eq @ x == b_eq``,
* per-variable bounds.

The scheduling modules of :mod:`repro.core` build their forms directly
(:func:`repro.core.formulations.build_allocation_model` emits CSR blocks).

The constraint blocks are dense (`numpy.ndarray`) or sparse
(`scipy.sparse.csr_matrix`).  The allocation LPs have a few non-zeros per
row but thousands of columns, so production forms are CSR, and both solvers
consume CSR blocks directly: HiGHS via :mod:`repro.lp.scipy_backend` and
the in-house revised simplex of :mod:`repro.lp.revised_simplex`, which
works on the CSR/CSC blocks without ever materialising a dense tableau.
:meth:`MatrixForm.densified` converts back to dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np
import scipy.sparse as sp

from .solution import LPSolution, LPStatus

__all__ = ["MatrixForm", "solve_constant_form"]

#: A constraint block: dense 2-D array or CSR matrix.
ConstraintBlock = Union[np.ndarray, sp.csr_matrix]


@dataclass
class MatrixForm:
    """Matrix representation of a linear program (minimisation form).

    Attributes
    ----------
    c:
        Objective coefficient vector (already negated for maximisation models;
        always a dense 1-D array).
    objective_constant:
        Constant term of the objective, to be added back to the backend's
        optimal value.
    objective_sign:
        ``+1`` when the original model minimises, ``-1`` when it maximises
        (the matrices always describe a minimisation).
    a_ub, b_ub:
        Inequality block, possibly empty.  ``a_ub`` is a dense array or a
        CSR matrix.
    a_eq, b_eq:
        Equality block, possibly empty, same flavour as ``a_ub``.
    bounds:
        ``(num_variables, 2)`` float array of ``(lower, upper)`` pairs, with
        ``±inf`` for infinite bounds (consumed as-is by HiGHS, whose
        infinity is IEEE infinity).
    """

    c: np.ndarray
    objective_constant: float
    objective_sign: float
    a_ub: ConstraintBlock
    b_ub: np.ndarray
    a_eq: ConstraintBlock
    b_eq: np.ndarray
    bounds: np.ndarray

    @property
    def num_variables(self) -> int:
        """Number of decision variables (columns)."""
        return self.c.shape[0]

    @property
    def num_inequalities(self) -> int:
        """Number of rows in the inequality block."""
        return self.a_ub.shape[0]

    @property
    def num_equalities(self) -> int:
        """Number of rows in the equality block."""
        return self.a_eq.shape[0]

    @property
    def num_constraints(self) -> int:
        """Number of rows in both blocks."""
        return self.num_inequalities + self.num_equalities

    @property
    def is_sparse(self) -> bool:
        """``True`` when the constraint blocks are CSR matrices."""
        return sp.issparse(self.a_ub) or sp.issparse(self.a_eq)

    def densified(self) -> "MatrixForm":
        """Return an equivalent form with dense constraint blocks.

        Only the frozen tableau the tests compare against and the dense side
        of the lowering bench need this; the production solvers (HiGHS, the
        in-house revised simplex) consume the CSR blocks directly.  Returns
        ``self`` when the form is already dense; the vectors and the bounds
        list are shared either way (they are never mutated by the backends).
        """
        if not self.is_sparse:
            return self
        return replace(
            self,
            a_ub=self.a_ub.toarray() if sp.issparse(self.a_ub) else self.a_ub,
            a_eq=self.a_eq.toarray() if sp.issparse(self.a_eq) else self.a_eq,
        )

    def with_bounds(self, bounds: np.ndarray) -> "MatrixForm":
        """Return a copy of the form with replaced variable bounds.

        The constraint matrices are shared with ``self``, which makes this
        the cheap re-solve entry point used by the feasibility probes of
        :mod:`repro.core.maxflow`: only the bounds differ between probes.
        """
        bounds = np.array(bounds, dtype=float)  # np.array (not asarray): always copy
        if bounds.shape != (self.num_variables, 2):
            raise ValueError(
                f"expected a ({self.num_variables}, 2) bounds array, got {bounds.shape}"
            )
        return replace(self, bounds=bounds)

    def restore_objective(self, minimised_value: float) -> float:
        """Map the backend's minimised value back to the model's objective."""
        return self.objective_sign * minimised_value + self.objective_constant


def solve_constant_form(form: MatrixForm, backend: str, tol: float = 1e-9) -> LPSolution:
    """Decide a zero-variable form: feasible iff the constant rows hold.

    Both backends' form-level entry points delegate degenerate variable-free
    programs here instead of handing an empty cost vector to their solvers.
    """
    violated = bool((form.b_ub < -tol).any() or (abs(form.b_eq) > tol).any())
    if violated:
        return LPSolution(
            status=LPStatus.INFEASIBLE,
            backend=backend,
            message="constant constraints are violated",
        )
    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective_value=form.objective_constant,
        values={},
        backend=backend,
    )
