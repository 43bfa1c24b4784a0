"""The :class:`LinearProgram` modelling object.

This is the modelling object of the expression DSL, the tests' way to state
a linear program in code.  A model owns its variables and constraints, knows
its optimisation sense, and delegates the actual solving to a pluggable
backend: :meth:`LinearProgram.solve` lowers the model with
:func:`~tests.reference.lp.lowering.to_matrix_form` and hands the form to
:func:`repro.lp.backends.solve_form` (HiGHS by default, or the in-house
revised simplex).  The scheduling modules of :mod:`repro.core` do not go
through this class: they lower their allocation LPs straight to matrix form
(:mod:`repro.core.formulations`).

Example
-------
>>> from tests.reference.lp import LinearProgram
>>> lp = LinearProgram(name="toy", sense="min")
>>> x = lp.add_variable("x", lower=0.0)
>>> y = lp.add_variable("y", lower=0.0)
>>> lp.add_constraint(x + 2 * y >= 4, name="cover")
>>> lp.add_constraint(3 * x + y >= 6, name="cover2")
>>> lp.set_objective(x + y)
>>> sol = lp.solve()
>>> round(sol.objective_value, 6)
2.8
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.lp.backends import solve_form
from repro.lp.solution import LPSolution, require_optimal

from .constraint import Constraint
from .expression import LinearExpression, Variable, as_expression

__all__ = ["LinearProgram"]


class LinearProgram:
    """A linear program: variables, linear constraints and a linear objective.

    Parameters
    ----------
    name:
        Optional model name, used in error messages and debug dumps.
    sense:
        ``"min"`` (default) or ``"max"``.
    """

    def __init__(self, name: str = "", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective: LinearExpression = LinearExpression.zero()
        self._bounds_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Model building                                                      #
    # ------------------------------------------------------------------ #
    def add_variable(
        self,
        name: str = "",
        lower: float = 0.0,
        upper: float = float("inf"),
    ) -> Variable:
        """Create a new decision variable and return it.

        Parameters
        ----------
        name:
            Human-readable name.  When empty, ``x{index}`` is used.
        lower, upper:
            Bounds; use ``-float('inf')`` for a free variable.
        """
        if lower > upper:
            raise ValueError(f"variable {name!r} has empty domain [{lower}, {upper}]")
        index = len(self._variables)
        var = Variable(index=index, name=name or f"x{index}", lower=float(lower), upper=float(upper))
        self._variables.append(var)
        self._bounds_cache = None
        return var

    def add_variables(
        self,
        count: int,
        prefix: str = "x",
        lower: float = 0.0,
        upper: float = float("inf"),
    ) -> List[Variable]:
        """Create ``count`` variables named ``{prefix}{k}`` and return them."""
        return [self.add_variable(f"{prefix}{k}", lower, upper) for k in range(count)]

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint (built via ``expr <= rhs`` style comparisons)."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint; build one with a comparison "
                "such as `expr <= bound`"
            )
        if name:
            constraint = constraint.named(name)
        self._constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        """Add several constraints at once."""
        for con in constraints:
            self.add_constraint(con)

    def set_objective(
        self, expression: Union[Variable, LinearExpression, float, int], sense: Optional[str] = None
    ) -> None:
        """Set the objective expression (and optionally change the sense)."""
        if sense is not None:
            if sense not in ("min", "max"):
                raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
            self.sense = sense
        self._objective = as_expression(expression)

    def fix_variable(self, var: Variable, value: float) -> None:
        """Add the pair of constraints pinning ``var`` to ``value``."""
        self.add_constraint(var == value, name=f"fix_{var.name}")

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Sequence[Variable]:
        """The model's variables, in creation order."""
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """The model's constraints, in creation order."""
        return tuple(self._constraints)

    @property
    def objective(self) -> LinearExpression:
        """The objective expression."""
        return self._objective

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self._variables)

    def bounds_array(self) -> np.ndarray:
        """Return the ``(num_variables, 2)`` bounds array (``±inf`` when free).

        Variables are immutable and append-only, so the array is built once
        and cached until the next :meth:`add_variable`.  Callers must treat
        the returned array as read-only (copy before mutating).
        """
        if self._bounds_cache is None or self._bounds_cache.shape[0] != len(self._variables):
            n = len(self._variables)
            bounds = np.empty((n, 2))
            bounds[:, 0] = np.fromiter(
                (var.lower for var in self._variables), dtype=float, count=n
            )
            bounds[:, 1] = np.fromiter(
                (var.upper for var in self._variables), dtype=float, count=n
            )
            self._bounds_cache = bounds
        return self._bounds_cache

    @property
    def num_constraints(self) -> int:
        """Number of constraints."""
        return len(self._constraints)

    def check_solution(self, values: Dict[int, float], tol: float = 1e-6) -> List[str]:
        """Return a list of violated-constraint descriptions at ``values``.

        An empty list means the point is feasible up to ``tol``.  Bound
        violations are reported as well.
        """
        problems: List[str] = []
        for var in self._variables:
            val = values.get(var.index, 0.0)
            if val < var.lower - tol or val > var.upper + tol:
                problems.append(
                    f"variable {var.name} = {val} outside bounds [{var.lower}, {var.upper}]"
                )
        for k, con in enumerate(self._constraints):
            violation = con.violation(values)
            if violation > tol:
                label = con.name or f"#{k}"
                problems.append(f"constraint {label} violated by {violation:.3e}")
        return problems

    # ------------------------------------------------------------------ #
    # Solving                                                             #
    # ------------------------------------------------------------------ #
    def solve(self, backend: str = "scipy") -> LPSolution:
        """Solve the model and return an :class:`LPSolution`.

        Parameters
        ----------
        backend:
            Any name accepted by :func:`repro.lp.backends.canonical_backend`:
            ``"scipy"`` (HiGHS through :func:`scipy.optimize.linprog`, the
            default) or ``"simplex"``/``"revised"`` (the in-house sparse
            revised simplex).
        """
        from .lowering import to_matrix_form  # lowering imports this module

        return solve_form(to_matrix_form(self, sparse=True), backend)

    def solve_or_raise(self, backend: str = "scipy") -> LPSolution:
        """Solve and raise a typed exception unless the result is optimal."""
        return require_optimal(self.solve(backend=backend), self.name)

    # ------------------------------------------------------------------ #
    # Debugging                                                           #
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Return a human-readable dump of the model (for debugging/tests)."""
        lines = [f"{self.sense} {self._objective!r}", "subject to:"]
        for k, con in enumerate(self._constraints):
            label = con.name or f"c{k}"
            lines.append(f"  {label}: {con.expression!r} {con.sense} 0")
        lines.append("bounds:")
        for var in self._variables:
            lines.append(f"  {var.lower} <= {var.name} <= {var.upper}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearProgram(name={self.name!r}, sense={self.sense!r}, "
            f"vars={self.num_variables}, cons={self.num_constraints})"
        )
