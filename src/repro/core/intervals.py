"""Epochal times and time intervals.

All the linear programs of Section 4 are indexed by *time intervals* obtained
by cutting the time axis at *epochal times*:

* Linear Program (1) (makespan) cuts at the distinct release dates;
* System (2) (deadline feasibility) cuts at release dates and deadlines;
* Systems (3) and (5) (max weighted flow) cut at release dates and the
  *affine* deadlines ``d_j(F) = r_j + F / w_j``; the interval bounds are then
  affine functions of the objective ``F`` that keep a fixed order between two
  consecutive milestones.

This module builds those interval sets.  All three cases share the same
:class:`TimeInterval` type, whose bounds are :class:`~repro.core.affine.Affine`
functions (constants are just affine functions with slope zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..exceptions import InvalidInstanceError
from .affine import Affine
from .tolerances import ABS_TOL

__all__ = [
    "TimeInterval",
    "build_constant_intervals",
    "build_affine_intervals",
    "distinct_sorted",
]


@dataclass(frozen=True)
class TimeInterval:
    """A half-open time interval ``[lower, upper)`` with (possibly affine) bounds.

    Attributes
    ----------
    index:
        Position of the interval in its interval set (0-based).
    lower, upper:
        Bounds as affine functions of the objective ``F``.  For the makespan
        and deadline problems both slopes are zero.
    """

    index: int
    lower: Affine
    upper: Affine

    # ------------------------------------------------------------------ #
    def length(self) -> Affine:
        """Return the interval duration ``upper - lower`` as an affine function."""
        return self.upper - self.lower

    def lower_at(self, objective: float = 0.0) -> float:
        """Evaluate the lower bound at objective value ``objective``."""
        return self.lower(objective)

    def upper_at(self, objective: float = 0.0) -> float:
        """Evaluate the upper bound at objective value ``objective``."""
        return self.upper(objective)

    def length_at(self, objective: float = 0.0) -> float:
        """Evaluate the duration at objective value ``objective``."""
        return self.upper(objective) - self.lower(objective)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeInterval(#{self.index}, [{self.lower!r}, {self.upper!r}))"


def distinct_sorted(values: Iterable[float], tol: float = ABS_TOL) -> List[float]:
    """Return the sorted distinct values of ``values`` (merging near-duplicates).

    Two values closer than ``tol`` are considered the same epochal time; the
    smaller representative is kept.
    """
    ordered = sorted(values)
    result: List[float] = []
    for value in ordered:
        if not result or value - result[-1] > tol:
            result.append(value)
    return result


def build_constant_intervals(times: Sequence[float], tol: float = ABS_TOL) -> List[TimeInterval]:
    """Build the intervals delimited by a set of (constant) epochal times.

    Parameters
    ----------
    times:
        Epochal times (release dates, deadlines); duplicates are merged.

    Returns
    -------
    list of TimeInterval
        ``k - 1`` intervals when there are ``k`` distinct epochal times.  An
        empty list when fewer than two distinct times are supplied (a single
        epochal time delimits no interval).
    """
    if len(times) == 0:
        raise InvalidInstanceError("cannot build intervals from an empty set of epochal times")
    cuts = distinct_sorted(times, tol=tol)
    intervals: List[TimeInterval] = []
    for index in range(len(cuts) - 1):
        intervals.append(
            TimeInterval(
                index=index,
                lower=Affine.const(cuts[index]),
                upper=Affine.const(cuts[index + 1]),
            )
        )
    return intervals


def build_affine_intervals(
    epochal_times: Sequence[Affine],
    sample_objective: float,
    tol: float = ABS_TOL,
) -> List[TimeInterval]:
    """Build intervals from affine epochal times, ordered at ``sample_objective``.

    Between two consecutive milestones the relative order of the epochal
    times does not depend on ``F``; evaluating at any interior sample point
    therefore yields the order valid over the whole milestone range.

    Parameters
    ----------
    epochal_times:
        The affine functions ``r_j`` (slope 0) and ``d_j(F)`` (slope
        ``1/w_j``).  Functionally identical entries are merged.
    sample_objective:
        An objective value strictly inside the milestone range of interest.

    Returns
    -------
    list of TimeInterval
        Consecutive intervals covering the span of the epochal times at the
        sample objective.
    """
    if len(epochal_times) == 0:
        raise InvalidInstanceError("cannot build intervals from an empty set of epochal times")

    # Merge functionally identical epochal times.
    unique: List[Affine] = []
    for candidate in epochal_times:
        if not any(candidate.functionally_equal(existing, tol=tol) for existing in unique):
            unique.append(candidate)

    # Merge epochal times that coincide *at the sample objective*: inside a
    # milestone range two distinct affine functions never cross, so values
    # that coincide at the sample coincide over the whole range boundary-wise
    # only at the range endpoints; treating them as a single cut keeps the
    # interval set well formed in the degenerate case where the range has
    # zero width.
    unique.sort(key=lambda fn: fn(sample_objective))
    cuts: List[Affine] = []
    for candidate in unique:
        if cuts and abs(candidate(sample_objective) - cuts[-1](sample_objective)) <= tol:
            continue
        cuts.append(candidate)

    intervals: List[TimeInterval] = []
    for index in range(len(cuts) - 1):
        intervals.append(TimeInterval(index=index, lower=cuts[index], upper=cuts[index + 1]))
    return intervals
