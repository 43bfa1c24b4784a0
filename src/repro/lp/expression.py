"""Linear expressions and decision variables for the LP modelling layer.

The paper formulates all of its scheduling problems as linear programs
(Linear Program (1), Systems (2), (3) and (5)).  This module provides the
small symbolic layer used to state such programs in code: decision
variables, affine (linear + constant) expressions over them, and the operator
overloading that lets constraints be written the same way the paper writes
them, e.g.::

    model.add_constraint(sum(alpha[i, j, t] * c[i, j] for j in jobs) <= length_t)

The design intentionally mirrors widely used modelling layers (PuLP, gurobipy)
but stays tiny: expressions are dictionaries mapping variable indices to
coefficients plus a float constant.  Everything is immutable from the outside;
in-place accumulation is available through :meth:`LinearExpression.add_term`
on privately owned instances for performance when building large models.

The scheduling modules of :mod:`repro.core` no longer go through this layer:
they build their allocation LPs straight in matrix form
(:mod:`repro.core.formulations`).  The test suite states the same programs
with it as the reference those forms must equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple, Union

__all__ = ["Variable", "LinearExpression", "as_expression", "linear_sum"]

Number = Union[int, float]


@dataclass(frozen=True)
class Variable:
    """A decision variable of a :class:`~repro.lp.model.LinearProgram`.

    Variables are created through :meth:`LinearProgram.add_variable`; user
    code never instantiates them directly.  They are hashable and compare by
    identity of their ``index`` within their owning model.

    Attributes
    ----------
    index:
        Position of the variable in the model's column ordering.
    name:
        Human-readable name, used in debug dumps and solution objects.
    lower:
        Lower bound (``-inf`` for free variables).
    upper:
        Upper bound (``+inf`` for unbounded-above variables).
    """

    index: int
    name: str
    lower: float = 0.0
    upper: float = float("inf")

    # -- arithmetic -------------------------------------------------------
    def _as_expr(self) -> "LinearExpression":
        return LinearExpression({self.index: 1.0}, 0.0)

    def __add__(self, other: Union["Variable", "LinearExpression", Number]) -> "LinearExpression":
        return self._as_expr() + other

    def __radd__(self, other: Union[Number, "LinearExpression"]) -> "LinearExpression":
        return self._as_expr() + other

    def __sub__(self, other: Union["Variable", "LinearExpression", Number]) -> "LinearExpression":
        return self._as_expr() - other

    def __rsub__(self, other: Union[Number, "LinearExpression"]) -> "LinearExpression":
        return (-1.0) * self._as_expr() + other

    def __mul__(self, scalar: Number) -> "LinearExpression":
        return self._as_expr() * scalar

    def __rmul__(self, scalar: Number) -> "LinearExpression":
        return self._as_expr() * scalar

    def __neg__(self) -> "LinearExpression":
        return self._as_expr() * -1.0

    def __truediv__(self, scalar: Number) -> "LinearExpression":
        return self._as_expr() / scalar

    # -- comparisons build constraints (handled by the model module) ------
    def __le__(self, other: Union["Variable", "LinearExpression", Number]):
        from .constraint import Constraint  # local import to avoid a cycle

        return Constraint.from_comparison(self._as_expr(), other, "<=")

    def __ge__(self, other: Union["Variable", "LinearExpression", Number]):
        from .constraint import Constraint

        return Constraint.from_comparison(self._as_expr(), other, ">=")

    def __eq__(self, other: object):  # type: ignore[override]
        # Equality against another Variable/expression/number builds a
        # constraint.  Identity-style equality (needed for hashing and for
        # dataclass-generated comparisons) is not used anywhere in the code
        # base, so this asymmetry is acceptable and mirrors PuLP's behaviour.
        from .constraint import Constraint

        if isinstance(other, (Variable, LinearExpression, int, float)):
            return Constraint.from_comparison(self._as_expr(), other, "==")
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index, self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r}, index={self.index})"


@dataclass
class LinearExpression:
    """An affine expression ``sum_k coeff_k * x_k + constant``.

    Instances behave like values: the arithmetic operators return new
    expressions and never mutate their operands.  The only mutating entry
    point is :meth:`add_term`, which exists so that model-building loops can
    accumulate thousands of terms without allocating intermediate dicts.
    """

    coefficients: Dict[int, float] = field(default_factory=dict)
    constant: float = 0.0

    # -- construction helpers ---------------------------------------------
    @staticmethod
    def zero() -> "LinearExpression":
        """Return the zero expression."""
        return LinearExpression({}, 0.0)

    def copy(self) -> "LinearExpression":
        """Return an independent copy of the expression."""
        return LinearExpression(dict(self.coefficients), self.constant)

    def add_term(self, var: Variable, coeff: float) -> "LinearExpression":
        """In-place ``self += coeff * var`` (returns ``self`` for chaining)."""
        if coeff != 0.0:
            self.coefficients[var.index] = self.coefficients.get(var.index, 0.0) + coeff
        return self

    def add_constant(self, value: float) -> "LinearExpression":
        """In-place ``self += value`` (returns ``self`` for chaining)."""
        self.constant += value
        return self

    # -- inspection --------------------------------------------------------
    def is_constant(self) -> bool:
        """Return ``True`` when the expression has no variable terms."""
        return all(c == 0.0 for c in self.coefficients.values())

    def coefficient(self, var: Variable) -> float:
        """Return the coefficient of ``var`` (0.0 when absent)."""
        return self.coefficients.get(var.index, 0.0)

    def terms(self) -> Iterable[Tuple[int, float]]:
        """Iterate over ``(variable_index, coefficient)`` pairs."""
        return self.coefficients.items()

    def evaluate(self, values: Mapping[int, float]) -> float:
        """Evaluate the expression at a point given as ``{var_index: value}``."""
        total = self.constant
        for idx, coeff in self.coefficients.items():
            total += coeff * values.get(idx, 0.0)
        return total

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other: Union["Variable", "LinearExpression", Number]) -> "LinearExpression":
        if isinstance(other, LinearExpression):
            return other
        if isinstance(other, Variable):
            return other._as_expr()
        if isinstance(other, (int, float)):
            return LinearExpression({}, float(other))
        raise TypeError(f"cannot combine LinearExpression with {type(other).__name__}")

    def __add__(self, other: Union["Variable", "LinearExpression", Number]) -> "LinearExpression":
        rhs = self._coerce(other)
        coeffs = dict(self.coefficients)
        for idx, coeff in rhs.coefficients.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + coeff
        return LinearExpression(coeffs, self.constant + rhs.constant)

    def __radd__(self, other: Union[Number, "Variable"]) -> "LinearExpression":
        return self.__add__(other)

    def __sub__(self, other: Union["Variable", "LinearExpression", Number]) -> "LinearExpression":
        rhs = self._coerce(other)
        coeffs = dict(self.coefficients)
        for idx, coeff in rhs.coefficients.items():
            coeffs[idx] = coeffs.get(idx, 0.0) - coeff
        return LinearExpression(coeffs, self.constant - rhs.constant)

    def __rsub__(self, other: Union[Number, "Variable"]) -> "LinearExpression":
        return self._coerce(other) - self

    def __mul__(self, scalar: Number) -> "LinearExpression":
        if not isinstance(scalar, (int, float)):
            raise TypeError("LinearExpression can only be multiplied by a scalar")
        s = float(scalar)
        return LinearExpression(
            {idx: coeff * s for idx, coeff in self.coefficients.items()}, self.constant * s
        )

    def __rmul__(self, scalar: Number) -> "LinearExpression":
        return self.__mul__(scalar)

    def __truediv__(self, scalar: Number) -> "LinearExpression":
        if not isinstance(scalar, (int, float)):
            raise TypeError("LinearExpression can only be divided by a scalar")
        if scalar == 0:
            raise ZeroDivisionError("division of a LinearExpression by zero")
        return self.__mul__(1.0 / float(scalar))

    def __neg__(self) -> "LinearExpression":
        return self.__mul__(-1.0)

    # -- comparisons build constraints --------------------------------------
    def __le__(self, other: Union["Variable", "LinearExpression", Number]):
        from .constraint import Constraint

        return Constraint.from_comparison(self, other, "<=")

    def __ge__(self, other: Union["Variable", "LinearExpression", Number]):
        from .constraint import Constraint

        return Constraint.from_comparison(self, other, ">=")

    def __eq__(self, other: object):  # type: ignore[override]
        from .constraint import Constraint

        if isinstance(other, (Variable, LinearExpression, int, float)):
            return Constraint.from_comparison(self, other, "==")
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # expressions are mutable, not hashable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c:+g}*x{i}" for i, c in sorted(self.coefficients.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinearExpression(" + " ".join(parts) + ")"


def as_expression(value: Union[Variable, LinearExpression, Number]) -> LinearExpression:
    """Coerce a variable, expression or number into a :class:`LinearExpression`."""
    if isinstance(value, LinearExpression):
        return value
    if isinstance(value, Variable):
        return value._as_expr()
    if isinstance(value, (int, float)):
        return LinearExpression({}, float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a linear expression")


def linear_sum(terms: Iterable[Union[Variable, LinearExpression, Number]]) -> LinearExpression:
    """Sum an iterable of variables/expressions/numbers efficiently.

    Unlike the builtin :func:`sum`, this accumulates into a single mutable
    expression, which matters when the scheduling modules build resource
    constraints with thousands of terms.
    """
    acc = LinearExpression.zero()
    for term in terms:
        if isinstance(term, Variable):
            acc.coefficients[term.index] = acc.coefficients.get(term.index, 0.0) + 1.0
        elif isinstance(term, LinearExpression):
            for idx, coeff in term.coefficients.items():
                acc.coefficients[idx] = acc.coefficients.get(idx, 0.0) + coeff
            acc.constant += term.constant
        elif isinstance(term, (int, float)):
            acc.constant += float(term)
        else:
            raise TypeError(f"cannot sum term of type {type(term).__name__}")
    return acc
