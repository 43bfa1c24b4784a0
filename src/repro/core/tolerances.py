"""Centralised numerical tolerances and float comparison helpers.

The algorithms of the paper are exact over the rationals, but our LP backends
work in floating point.  Every feasibility decision in the library goes
through the helpers of this module so that the tolerance policy is defined in
exactly one place.  The default tolerances are deliberately loose compared to
machine epsilon: LP solvers typically return solutions whose constraint
violations are of the order of ``1e-9`` on well-scaled problems, and the
milestone search of Section 4.3 only needs to distinguish objective values
that differ by a milestone gap, which is never that small for sensible
instances.
"""

from __future__ import annotations

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "FEASIBILITY_TOL",
    "is_close",
    "lt",
]

#: Default absolute tolerance used by the comparison helpers.
ABS_TOL: float = 1e-8

#: Default relative tolerance used by the comparison helpers.
REL_TOL: float = 1e-9

#: Tolerance used when checking LP constraint satisfaction and schedule
#: validity.  Slightly looser than :data:`ABS_TOL` because constraint residuals
#: accumulate rounding error from several floating-point operations.
FEASIBILITY_TOL: float = 1e-6


def is_close(a: float, b: float, *, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    """Return ``True`` when ``a`` and ``b`` are equal up to tolerance.

    Combines an absolute and a relative criterion, mirroring
    :func:`math.isclose` but with library-wide defaults.
    """
    diff = abs(a - b)
    if diff <= abs_tol:
        return True
    return diff <= rel_tol * max(abs(a), abs(b))


def lt(a: float, b: float, *, tol: float = ABS_TOL) -> bool:
    """Strict tolerant ``a < b``: true when ``a`` is below ``b`` by more than ``tol``."""
    return a < b - tol


