"""Affine functions of the objective value ``F``.

Section 4.3 of the paper turns the max-weighted-flow problem into a family of
deadline problems whose deadlines ``d_j(F) = r_j + F / w_j`` are *affine* in
the objective ``F``.  Between two consecutive milestones the relative order
of all release dates and deadlines is fixed, so every epochal time — and
hence every interval length appearing in System (3)/(5) — is an affine
function of ``F``.

This module provides the tiny symbolic type used to carry those functions
around: :class:`Affine` represents ``constant + slope * F``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .tolerances import ABS_TOL, is_close

__all__ = ["Affine"]

Number = Union[int, float]


@dataclass(frozen=True)
class Affine:
    """An affine function of the objective value: ``value(F) = constant + slope * F``.

    Release dates are encoded with ``slope == 0``; the deadline of job ``j``
    is ``Affine(r_j, 1 / w_j)``.
    """

    constant: float
    slope: float = 0.0

    # ------------------------------------------------------------------ #
    @staticmethod
    def const(value: float) -> "Affine":
        """Return the constant function ``F -> value``."""
        return Affine(float(value), 0.0)

    def __call__(self, objective: float) -> float:
        """Evaluate the function at objective value ``objective``."""
        return self.constant + self.slope * objective

    # ------------------------------------------------------------------ #
    # Arithmetic                                                          #
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Affine", Number]) -> "Affine":
        if isinstance(other, Affine):
            return Affine(self.constant + other.constant, self.slope + other.slope)
        return Affine(self.constant + float(other), self.slope)

    def __radd__(self, other: Number) -> "Affine":
        return self.__add__(other)

    def __sub__(self, other: Union["Affine", Number]) -> "Affine":
        if isinstance(other, Affine):
            return Affine(self.constant - other.constant, self.slope - other.slope)
        return Affine(self.constant - float(other), self.slope)

    def __rsub__(self, other: Number) -> "Affine":
        return Affine(float(other) - self.constant, -self.slope)

    def __mul__(self, scalar: Number) -> "Affine":
        return Affine(self.constant * float(scalar), self.slope * float(scalar))

    def __rmul__(self, scalar: Number) -> "Affine":
        return self.__mul__(scalar)

    def __neg__(self) -> "Affine":
        return Affine(-self.constant, -self.slope)

    # ------------------------------------------------------------------ #
    # Structure                                                           #
    # ------------------------------------------------------------------ #
    def functionally_equal(self, other: "Affine", tol: float = ABS_TOL) -> bool:
        """Return ``True`` when the two functions coincide everywhere (up to tolerance)."""
        return is_close(self.constant, other.constant, abs_tol=tol) and is_close(
            self.slope, other.slope, abs_tol=tol
        )

    def intersection(self, other: "Affine") -> Optional[float]:
        """Return the objective value at which the two functions are equal.

        Returns ``None`` when the functions are parallel (including when they
        are identical — an identical pair never defines a milestone).
        """
        slope_diff = self.slope - other.slope
        if abs(slope_diff) <= ABS_TOL:
            return None
        crossing = (other.constant - self.constant) / slope_diff
        if not math.isfinite(crossing):
            return None
        return crossing

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.slope == 0:
            return f"Affine({self.constant:g})"
        return f"Affine({self.constant:g} + {self.slope:g}*F)"
