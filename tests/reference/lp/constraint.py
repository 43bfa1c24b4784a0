"""Linear constraints for the LP modelling layer.

A constraint is stored in the normalised form ``expression (<=|>=|==) 0`` with
the right-hand side folded into the expression's constant term, which keeps
the lowering to matrix form (see :mod:`tests.reference.lp.lowering`) trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .expression import LinearExpression, Variable, as_expression

__all__ = ["Constraint", "ConstraintSense"]

#: The three supported comparison senses.
ConstraintSense = str  # one of "<=", ">=", "=="

_VALID_SENSES = ("<=", ">=", "==")


@dataclass
class Constraint:
    """A linear constraint ``lhs (sense) rhs``.

    Internally stored as ``expression (sense) 0`` where ``expression`` already
    contains ``lhs - rhs``.  The original right-hand side is not kept; it can
    always be recovered as ``-expression.constant`` when the left-hand side
    has no constant term.
    """

    expression: LinearExpression
    sense: ConstraintSense
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in _VALID_SENSES:
            raise ValueError(f"invalid constraint sense {self.sense!r}; expected one of {_VALID_SENSES}")

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_comparison(
        lhs: Union[Variable, LinearExpression, float, int],
        rhs: Union[Variable, LinearExpression, float, int],
        sense: ConstraintSense,
        name: str = "",
    ) -> "Constraint":
        """Build a constraint from two sides and a comparison sense."""
        expr = as_expression(lhs) - as_expression(rhs)
        return Constraint(expr, sense, name)

    def named(self, name: str) -> "Constraint":
        """Return a copy of the constraint carrying ``name`` (for debugging)."""
        return Constraint(self.expression.copy(), self.sense, name)

    # -- inspection ----------------------------------------------------------
    def violation(self, values: Mapping[int, float]) -> float:
        """Return the amount by which the constraint is violated at ``values``.

        A non-positive return value means the constraint is satisfied.  For
        equality constraints the absolute residual is returned.
        """
        residual = self.expression.evaluate(values)
        if self.sense == "<=":
            return residual
        if self.sense == ">=":
            return -residual
        return abs(residual)

    def is_satisfied(self, values: Mapping[int, float], tol: float = 1e-6) -> bool:
        """Return ``True`` when the constraint holds at ``values`` up to ``tol``."""
        return self.violation(values) <= tol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expression!r} {self.sense} 0{label})"
