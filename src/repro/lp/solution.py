"""Solution and status objects returned by the LP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError

__all__ = ["LPStatus", "LPSolution", "require_optimal"]


class LPStatus(enum.Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        """Return ``True`` when the solve produced a proven optimum."""
        return self is LPStatus.OPTIMAL


@dataclass
class LPSolution:
    """Result of solving a :class:`~repro.lp.standard_form.MatrixForm`.

    Attributes
    ----------
    status:
        Termination status.
    objective_value:
        Optimal objective value (``None`` unless ``status`` is optimal).
    values:
        Mapping from variable index to optimal value (empty unless optimal).
    backend:
        Canonical label of the backend that produced the solution
        (``"scipy-highs"`` or ``"simplex-revised"``; the frozen tableau
        reference stamps ``"tableau"``), recorded for diagnostics and the
        backend-ablation bench.
    iterations:
        Iteration count reported by the backend, when available.
    message:
        Free-form backend message (useful when ``status`` is ``ERROR``).
    """

    status: LPStatus
    objective_value: Optional[float] = None
    values: Dict[int, float] = field(default_factory=dict)
    backend: str = ""
    iterations: Optional[int] = None
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        """Return ``True`` when the solve produced a proven optimum."""
        return self.status.is_optimal

    @property
    def is_infeasible(self) -> bool:
        """Return ``True`` when the problem was proven infeasible."""
        return self.status is LPStatus.INFEASIBLE


def require_optimal(solution: LPSolution, name: str = "") -> LPSolution:
    """Return ``solution`` when optimal; raise a typed exception otherwise.

    ``name`` labels the program in the error message.
    """
    label = name or "<unnamed>"
    if solution.status is LPStatus.OPTIMAL:
        return solution
    if solution.status is LPStatus.INFEASIBLE:
        raise InfeasibleProblemError(f"LP {label} is infeasible")
    if solution.status is LPStatus.UNBOUNDED:
        raise UnboundedProblemError(f"LP {label} is unbounded")
    raise SolverError(f"LP {label} failed: {solution.message or 'unknown backend error'}")
