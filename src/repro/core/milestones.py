"""Milestone enumeration for the max-weighted-flow binary search (Section 4.3.2).

A *milestone* is an objective value ``F`` at which the relative order of the
release dates ``r_1 … r_n`` and the deadlines ``d_j(F) = r_j + F / w_j``
changes, i.e. a value where a deadline coincides with a release date or with
another deadline.  (Labetoulle, Lawler, Lenstra and Rinnooy Kan call these
"critical trial values".)

The paper bounds their number by ``n² - n``:

* at most ``n (n - 1) / 2`` values where a deadline crosses a release date,
* at most ``n (n - 1) / 2`` values where two deadlines cross (two affine
  functions intersect in at most one point).

Only strictly positive milestones matter: the optimal maximum weighted flow of
an instance with positive processing requirements is strictly positive, and
the feasibility of an objective value is monotone, so the search space is the
sequence of milestone ranges ``(0, F_1], (F_1, F_2], …, (F_nq, +inf)``.

A deadline's *origin* is the date its flow is counted from.  It is the release
date in the off-line problem.  The on-line re-planner poses the remaining work
as jobs released at the current time whose deadlines keep their original
release date, ``d_j(F) = r_j + F / w_j``, so it passes those origins apart.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .affine import Affine
from .job import Job
from .tolerances import ABS_TOL

__all__ = ["compute_milestones", "deadline_function"]


def deadline_function(job: Job, origin: Optional[float] = None) -> Affine:
    """Return the affine deadline ``d_j(F) = origin + F / w_j`` of ``job``.

    ``origin`` defaults to the job's release date.
    """
    return Affine(job.release_date if origin is None else origin, 1.0 / job.weight)


def compute_milestones(
    jobs: Sequence[Job],
    tol: float = ABS_TOL,
    origins: Optional[Sequence[float]] = None,
) -> List[float]:
    """Return the sorted distinct strictly-positive milestones of the job set.

    Parameters
    ----------
    jobs:
        The instance's jobs.
    tol:
        Two milestones closer than ``tol`` are merged.
    origins:
        Per-job deadline origins (see the module docstring); the release
        dates when omitted.

    Returns
    -------
    list of float
        Milestones in increasing order.  May be empty (for example with a
        single job, whose deadline never crosses anything).
    """
    if origins is None:
        origins = [job.release_date for job in jobs]
    candidates: List[float] = []
    deadlines = [deadline_function(job, origin) for job, origin in zip(jobs, origins)]

    # Deadline meets a release date: r_k = o_j + F / w_j  =>  F = w_j (r_k - o_j).
    release_dates = {job.release_date for job in jobs}
    for job, origin in zip(jobs, origins):
        for release in release_dates:
            value = job.weight * (release - origin)
            if value > tol:
                candidates.append(value)

    # Deadline meets another deadline: the affine functions intersect in at
    # most one point.
    for a in range(len(deadlines)):
        for b in range(a + 1, len(deadlines)):
            crossing = deadlines[a].intersection(deadlines[b])
            if crossing is not None and crossing > tol:
                candidates.append(crossing)

    candidates.sort()
    milestones: List[float] = []
    for value in candidates:
        if not milestones or value - milestones[-1] > tol:
            milestones.append(value)
    return milestones


