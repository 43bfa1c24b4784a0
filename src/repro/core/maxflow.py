"""Minimisation of the maximum weighted flow (Sections 4.3 and 4.4, Theorem 2).

This is the paper's headline result.  The algorithm:

1. **Deadline reformulation** — a schedule has maximum weighted flow at most
   ``F`` iff every job meets the deadline ``d_j(F) = r_j + F / w_j``
   (Section 4.3.1), so feasibility of an objective value reduces to the
   deadline-scheduling test of Lemma 1.
2. **Milestones** — the relative order of release dates and deadlines only
   changes at the ``O(n²)`` objective values where a deadline meets a release
   date or another deadline (Section 4.3.2).  Between two consecutive
   milestones the structure of System (2) is constant and the interval
   lengths are *affine* in ``F``.
3. **Binary search over milestones** — each probe is one LP feasibility test;
   the search locates the milestone range containing the optimum.
4. **System (3)/(5) on the located range** — a final LP with ``F`` as a
   decision variable returns the exact optimum and an optimal allocation,
   which is converted into a schedule (sequential layout for the divisible
   model, Lawler–Labetoulle reconstruction for the preemptive model).

Every LP of both steps minimises ``F`` and is solved cold by HiGHS
(:mod:`repro.lp.scipy_backend`), which wins these programs by an order of
magnitude.  The in-house revised simplex keeps the zero-objective
feasibility programs of :mod:`repro.core.replanning` and
:mod:`repro.core.deadline`, where its warm dual re-solves win instead.

Probe reuse
-----------
Feasibility probes go through a :class:`FeasibilityProbe`, the hot-path
object of the search.  Instead of rebuilding the whole allocation model for
every probed objective value, the probe exploits the milestone structure:

* the combinatorial structure of the LP (interval order, allowed allocation
  variables) is constant over a milestone range, so the probe builds **one
  parametric model per range it touches** — with ``F`` as a bounded decision
  variable, lowered straight to a sparse matrix form by
  :func:`~repro.core.formulations.build_allocation_model` (no symbolic
  model) — and answers every probe in that range by re-solving with updated
  ``F`` bounds only;
* a probe at ``F`` is answered by minimising ``F`` over the range restricted
  to ``[range_low, F]``.  A *feasible* solve therefore yields the least
  feasible objective of the whole range, not just a yes/no answer.  When that
  minimum lies strictly inside the range it equals the global optimum ``F*``
  (feasibility is monotone in ``F``), after which **every** further probe is
  answered by comparing against ``F*`` without touching a solver;
* an *infeasible* solve proves every ``F`` at or below the probed value
  infeasible, again by monotonicity; both facts are recorded as monotone
  bounds and consulted before any LP work, so a repeated objective is
  answered without a solve;
* the per-range parametric models themselves sit in a size-capped LRU cache
  (``_MAX_CACHED_RANGES`` entries), so campaign-scale sweeps that keep many
  probes alive at once stay in bounded memory.

The per-call counters (``probes``, ``lp_solves``, ``model_constructions``)
feed the milestone-search bench, which asserts that the probe path performs
strictly fewer model constructions than it answers probes.

The module also provides a naive ε-precision binary search
(:func:`minimize_max_weighted_flow_bisection`), which the paper discusses and
rejects because it only reaches the optimum approximately; it is kept as a
baseline for the milestone-search ablation bench.  It accepts the same
``probe`` object so the two searches can share cached structures and the
monotone bounds.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import InfeasibleProblemError, InvalidInstanceError, SolverError
from ..lp import LPSolution
# Unused here, but perfbench/tracing.py patches both solver names on this module.
from ..lp.revised_simplex import solve_matrix_form_revised  # noqa: F401
from ..lp.scipy_backend import solve_matrix_form as _scipy_solve_form
from .affine import Affine
from .formulations import (
    AllocationModel,
    build_allocation_model,
    divisible_schedule_from_solution,
    preemptive_schedule_from_solution,
)
from .instance import Instance
from .intervals import build_affine_intervals
from .lower_bounds import max_weighted_flow_lower_bound
from .milestones import compute_milestones, deadline_function
from .schedule import Schedule
from .tolerances import ABS_TOL

__all__ = [
    "FeasibilityProbe",
    "MaxWeightedFlowResult",
    "minimize_max_weighted_flow",
    "minimize_max_stretch",
    "minimize_max_weighted_flow_bisection",
]


@dataclass(frozen=True)
class MaxWeightedFlowResult:
    """Result of a maximum-weighted-flow optimisation.

    Attributes
    ----------
    objective:
        Optimal maximum weighted flow ``F*``.
    schedule:
        A schedule whose maximum weighted flow equals ``F*`` (up to LP
        tolerance).
    milestones:
        The milestone values enumerated by the search.
    search_range:
        The milestone range ``(low, high)`` in which the optimum was located
        (``high`` is ``None`` for the unbounded final range).
    feasibility_checks:
        Number of feasibility probes answered during the binary search
        (solved by an LP or served from the probe's caches).
    lp_variables, lp_constraints:
        Size of the final System (3)/(5) LP.
    preemptive:
        Whether the preemptive (non-divisible) model was used.
    model_constructions:
        Number of allocation models built while optimising (parametric range
        structures, including the final range solve when it could not reuse
        a cached one).  Strictly smaller than ``feasibility_checks`` whenever
        the probe answered at least one probe from its caches.
    lp_solves:
        Number of LPs actually solved (probes that missed every cache, plus
        the final range solve when the optimum was not already pinned).
    """

    objective: float
    schedule: Schedule
    milestones: List[float]
    search_range: Tuple[float, Optional[float]]
    feasibility_checks: int
    lp_variables: int
    lp_constraints: int
    preemptive: bool
    model_constructions: int = 0
    lp_solves: int = 0


# --------------------------------------------------------------------------- #
# Reusable feasibility probe                                                  #
# --------------------------------------------------------------------------- #
#: Parametric range models cached per probe (LRU).
_MAX_CACHED_RANGES = 64


@dataclass
class _RangeModel:
    """Parametric allocation model of one milestone range ``(low, high]``.

    Every probe in the range re-solves ``alloc.form`` with HiGHS after moving
    only the objective column's bounds; nothing else about the model changes
    between solves.
    """

    index: int
    low: float
    high: Optional[float]
    alloc: AllocationModel


class FeasibilityProbe:
    """Reusable deadline-feasibility oracle over objective values.

    ``probe(F)`` answers "does a schedule with maximum weighted flow at most
    ``F`` exist?" exactly like
    :func:`repro.core.deadline.check_deadline_feasibility` on the deadlines
    ``d_j(F)``, but amortises the model-building work across probes (see the
    module docstring for the reuse strategy).  Instances are single-purpose:
    one probe per (instance, preemptive-flag) pair.

    Attributes
    ----------
    probes:
        Total number of ``probe`` calls answered.
    lp_solves:
        Number of probes that required an actual LP solve.
    model_constructions:
        Number of parametric range models built (each exactly once, unless
        evicted from the size-capped LRU range cache and needed again).
    """

    def __init__(
        self,
        instance: Instance,
        *,
        preemptive: bool = False,
    ) -> None:
        if instance.num_jobs == 0:
            raise InvalidInstanceError("cannot probe an empty instance")
        self.instance = instance
        self.preemptive = preemptive
        self.milestones: List[float] = compute_milestones(instance.jobs)
        #: Range ``k`` spans ``(boundaries[k], boundaries[k + 1]]`` (the last
        #: range is unbounded above).
        self._boundaries: List[float] = [0.0] + self.milestones
        #: LRU cache of parametric range models, capped at
        #: ``_MAX_CACHED_RANGES`` so that campaign-scale sweeps holding many
        #: probes alive stay in bounded memory (an evicted range is simply
        #: rebuilt — and counted — if a later probe needs it again).
        self._ranges: "OrderedDict[int, _RangeModel]" = OrderedDict()
        # Monotone knowledge accumulated from parametric solves:
        #   every F >= _feasible_min is feasible,
        #   every F <= _infeasible_max is infeasible,
        #   every F < _strict_below is infeasible (tightened once F* is pinned).
        # Seeded with the instance's analytic bounds: the trivial sequential
        # schedule achieves its bound in both models (so it is feasible), and
        # the per-job fluid bound certifies infeasibility below it.
        self._feasible_min = instance.trivial_upper_bound_flow()
        self._infeasible_max = 0.0
        self._strict_below = max_weighted_flow_lower_bound(instance)
        self._pinned: Optional[Tuple[_RangeModel, LPSolution, float]] = None
        self.probes = 0
        self.lp_solves = 0
        self.model_constructions = 0

    # -- public API ---------------------------------------------------------
    def __call__(self, objective: float) -> bool:
        return self.probe(objective)

    def probe(self, objective: float) -> bool:
        """Return ``True`` when max weighted flow ``objective`` is achievable."""
        self.probes += 1
        cached = self._lookup(objective)
        if cached is not None:
            return cached
        return self._probe_lp(objective)

    def pinned_optimum(self) -> Optional[Tuple[float, AllocationModel, LPSolution]]:
        """Return ``(F*, range model, solution)`` once the optimum is exact.

        The optimum is *pinned* when a parametric range solve returned a
        minimum strictly inside its milestone range — that minimum is the
        global optimum and the recorded solution is an optimal allocation,
        so callers can skip the final System (3)/(5) solve entirely.
        Returns ``None`` while the optimum has not been located yet.
        """
        if self._pinned is None:
            return None
        range_model, solution, threshold = self._pinned
        return threshold, range_model.alloc, solution

    def solve_range(self, low: float, high: Optional[float]) -> Tuple[float, AllocationModel, LPSolution]:
        """Minimise ``F`` over the milestone range ``(low, high]`` (System (3)/(5)).

        This is the final step of the milestone search: ``(low, high)`` must
        be a milestone range boundary pair as returned in
        :attr:`MaxWeightedFlowResult.search_range`.  The range structure is
        taken from (or added to) the probe's cache, and the located optimum
        is pinned so that subsequent probes are LP-free.

        Raises
        ------
        InfeasibleProblemError
            When the range LP is infeasible (cannot happen for a range whose
            upper boundary passed a feasibility probe).
        """
        if high is not None:
            k = bisect_left(self.milestones, high)
        else:
            k = len(self.milestones)
        range_model = self._ranges.get(k)
        if range_model is None:
            range_model = self._build_range(k)
        else:
            self._ranges.move_to_end(k)
        bounds = range_model.alloc.form.bounds.copy()
        bounds[range_model.alloc.objective_column] = (
            low,
            high if high is not None else np.inf,
        )
        form = range_model.alloc.form.with_bounds(bounds)
        solution = _scipy_solve_form(form)
        self.lp_solves += 1
        if solution.is_infeasible:
            # The upper boundary passed a feasibility probe, so the range is
            # feasible: HiGHS presolve misreports it when two epochal times
            # lie closer than its feasibility tolerance (release dates 2**-24
            # apart, say).  Solve once more without presolve.
            solution = _scipy_solve_form(form, presolve=False)
            self.lp_solves += 1
        if not solution.is_optimal:
            if solution.is_infeasible:
                raise InfeasibleProblemError(
                    f"milestone range ({low}, {high}] is infeasible"
                )
            raise SolverError(
                f"range solve on ({low}, {high}] failed: "
                f"{solution.message or solution.status}"
            )
        threshold = solution.values.get(range_model.alloc.objective_column, low)
        self._feasible_min = min(self._feasible_min, threshold)
        if threshold > low + ABS_TOL:
            self._strict_below = max(self._strict_below, threshold)
        self._pinned = (range_model, solution, threshold)
        return threshold, range_model.alloc, solution

    # -- cache lookups ------------------------------------------------------
    def _lookup(self, objective: float) -> Optional[bool]:
        if objective <= 0.0:
            # Positive work cannot complete by the release date itself.
            return False
        if objective >= self._feasible_min:
            return True
        if objective < self._strict_below:
            return False
        if objective <= self._infeasible_max:
            return False
        return None

    # -- LP machinery -------------------------------------------------------
    def _probe_lp(self, objective: float) -> bool:
        range_model = self._range_for(objective)
        bounds = range_model.alloc.form.bounds.copy()
        bounds[range_model.alloc.objective_column] = (range_model.low, objective)
        solution = _scipy_solve_form(range_model.alloc.form.with_bounds(bounds))
        self.lp_solves += 1

        if solution.is_optimal:
            threshold = solution.values.get(range_model.alloc.objective_column, objective)
            self._feasible_min = min(self._feasible_min, threshold)
            if threshold > range_model.low + ABS_TOL:
                # The minimum lies strictly inside the range: by monotonicity
                # it is the global optimum F*, and everything below it is
                # infeasible.
                self._strict_below = max(self._strict_below, threshold)
                self._pinned = (range_model, solution, threshold)
            return True
        if solution.is_infeasible:
            # No feasible F at or below the probed value exists in this range;
            # by monotonicity none exists globally either.
            self._infeasible_max = max(self._infeasible_max, objective)
            return False
        raise SolverError(
            f"feasibility probe at F={objective!r} failed: "
            f"{solution.message or solution.status}"
        )

    def _range_for(self, objective: float) -> _RangeModel:
        k = bisect_left(self.milestones, objective)
        candidates = [k]
        if k < len(self.milestones) and objective == self.milestones[k]:
            # The probed value is the shared boundary of ranges k and k + 1;
            # either structure is valid there, so prefer one already built.
            candidates.append(k + 1)
        for index in candidates:
            if index in self._ranges:
                self._ranges.move_to_end(index)
                return self._ranges[index]
        return self._build_range(candidates[0])

    def _build_range(self, k: int) -> _RangeModel:
        low = self._boundaries[k]
        high = self._boundaries[k + 1] if k + 1 < len(self._boundaries) else None
        sample = _range_sample(low, high)
        deadlines = [deadline_function(job) for job in self.instance.jobs]
        epochal = deadlines + [Affine.const(job.release_date) for job in self.instance.jobs]
        intervals = build_affine_intervals(epochal, sample)
        alloc = build_allocation_model(
            self.instance,
            intervals,
            deadlines=deadlines,
            objective_bounds=(low, high),
            sample_objective=sample,
            preemptive=self.preemptive,
        )
        self.model_constructions += 1
        range_model = _RangeModel(index=k, low=low, high=high, alloc=alloc)
        self._ranges[k] = range_model
        while len(self._ranges) > _MAX_CACHED_RANGES:
            self._ranges.popitem(last=False)
        return range_model


def _check_probe_matches(
    probe: FeasibilityProbe, instance: Instance, preemptive: bool
) -> None:
    """Reject a caller-supplied probe built for different search parameters.

    A mismatched probe would silently answer probes for the wrong model (or
    the wrong instance altogether), so the documented precondition is
    enforced with a clear error instead.
    """
    if probe.instance is not instance:
        raise ValueError("the supplied FeasibilityProbe was built for a different instance")
    if probe.preemptive != preemptive:
        raise ValueError(
            f"the supplied FeasibilityProbe uses preemptive={probe.preemptive}, "
            f"but the search requested preemptive={preemptive}"
        )


def _range_sample(low: float, high: Optional[float]) -> float:
    """An objective value strictly inside the milestone range ``(low, high)``."""
    if high is not None:
        sample = 0.5 * (low + high)
        if sample <= 0.0:
            sample = high * 0.5 if high > 0 else 1.0
        return sample
    return low + max(1.0, abs(low))


# --------------------------------------------------------------------------- #
# Milestone-exact algorithm (Theorem 2)                                        #
# --------------------------------------------------------------------------- #
def minimize_max_weighted_flow(
    instance: Instance,
    *,
    preemptive: bool = False,
    probe: Optional[FeasibilityProbe] = None,
) -> MaxWeightedFlowResult:
    """Compute the optimal maximum weighted flow and an optimal schedule.

    Parameters
    ----------
    instance:
        The scheduling instance.
    preemptive:
        ``False`` (default): divisible-load model (Section 4.3).
        ``True``: preemption allowed but no simultaneous execution of a job
        on two machines (Section 4.4).
    probe:
        Optional pre-warmed :class:`FeasibilityProbe` for ``instance`` (must
        match ``preemptive``); pass the same probe to
        :func:`minimize_max_weighted_flow_bisection` to share cached range
        structures and the monotone bounds between the two searches.
    """
    if instance.num_jobs == 0:
        raise InvalidInstanceError("cannot optimise an empty instance")

    if probe is None:
        probe = FeasibilityProbe(instance, preemptive=preemptive)
    else:
        _check_probe_matches(probe, instance, preemptive)
    probes_before = probe.probes
    solves_before = probe.lp_solves
    constructions_before = probe.model_constructions
    milestones = probe.milestones

    # Binary search for the leftmost feasible milestone. ---------------------
    search_low = 0.0
    search_high: Optional[float] = None

    if milestones:
        # Check the last milestone first: if even it is infeasible the
        # optimum lies in the unbounded final range.
        if not probe.probe(milestones[-1]):
            search_low = milestones[-1]
            search_high = None
        else:
            lo, hi = 0, len(milestones) - 1  # invariant: milestones[hi] feasible
            while lo < hi:
                mid = (lo + hi) // 2
                if probe.probe(milestones[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            search_high = milestones[lo]
            search_low = milestones[lo - 1] if lo > 0 else 0.0
    # With no milestones at all the order of epochal times never changes and
    # the single range [0, +inf) is searched directly.

    feasibility_checks = probe.probes - probes_before

    # Final solve on the located range. --------------------------------------
    # When a parametric probe already located the exact optimum (and an
    # optimal allocation) inside the search range, reuse it; otherwise solve
    # System (3)/(5) through the probe's range cache, which pins the optimum
    # for any later search sharing this probe.
    reused = _pinned_in_range(probe, search_low, search_high)
    if reused is None:
        reused = probe.solve_range(search_low, search_high)
    objective, alloc, solution = reused
    if preemptive:
        schedule = preemptive_schedule_from_solution(
            alloc, solution, objective_value=objective
        )
    else:
        schedule = divisible_schedule_from_solution(
            alloc, solution, objective_value=objective
        )

    return MaxWeightedFlowResult(
        objective=objective,
        schedule=schedule,
        milestones=milestones,
        search_range=(search_low, search_high),
        feasibility_checks=feasibility_checks,
        lp_variables=alloc.form.num_variables,
        lp_constraints=alloc.form.num_constraints,
        preemptive=preemptive,
        model_constructions=probe.model_constructions - constructions_before,
        lp_solves=probe.lp_solves - solves_before,
    )


def _pinned_in_range(
    probe: FeasibilityProbe, low: float, high: Optional[float]
) -> Optional[Tuple[float, AllocationModel, LPSolution]]:
    """Return the probe's pinned optimum when it lies in ``(low, high]``."""
    pinned = probe.pinned_optimum()
    if pinned is None:
        return None
    threshold, _alloc, _solution = pinned
    if threshold < low - ABS_TOL:
        return None
    if high is not None and threshold > high + ABS_TOL:
        return None
    return pinned


# --------------------------------------------------------------------------- #
# Convenience wrappers                                                         #
# --------------------------------------------------------------------------- #
def minimize_max_stretch(
    instance: Instance,
    *,
    preemptive: bool = False,
) -> MaxWeightedFlowResult:
    """Minimise the maximum stretch (flow divided by processing demand).

    Max-stretch is the special case of max weighted flow with weights
    ``w_j = 1 / W_j`` (see :meth:`repro.core.job.Job.stretch_weight`).  Jobs
    without an explicit size use their fastest single-machine processing time
    as the normalisation, which matches the definition used by
    :meth:`repro.core.schedule.Schedule.stretch`.
    """
    new_jobs = []
    for j, job in enumerate(instance.jobs):
        if job.size is not None:
            weight = job.stretch_weight()
        else:
            weight = 1.0 / instance.min_cost(j)
        new_jobs.append(job.with_weight(weight))
    stretch_instance = Instance(
        jobs=tuple(new_jobs), machines=instance.machines, costs=instance.costs.copy()
    )
    return minimize_max_weighted_flow(stretch_instance, preemptive=preemptive)


def minimize_max_weighted_flow_bisection(
    instance: Instance,
    *,
    precision: float = 1e-4,
    preemptive: bool = False,
    max_iterations: int = 200,
    probe: Optional[FeasibilityProbe] = None,
) -> Tuple[float, int]:
    """Naive ε-precision bisection on the objective value (the rejected approach).

    The paper points out that a plain binary search on the objective value
    cannot reach the exact optimum in bounded time because the optimum is an
    arbitrary rational.  This routine implements that naive search anyway so
    the milestone algorithm can be compared against it (ablation bench E6):
    it returns an objective value within ``precision`` of the optimum and the
    number of feasibility probes it needed.  Probes are answered by a
    :class:`FeasibilityProbe`, so once the bisection bracket falls inside a
    single milestone range the remaining iterations are LP-free; pass the
    ``probe`` of a previous search over the same instance to share its caches.

    Returns
    -------
    (objective_upper_bound, feasibility_checks)
    """
    if probe is None:
        probe = FeasibilityProbe(instance, preemptive=preemptive)
    else:
        _check_probe_matches(probe, instance, preemptive)
    probes_before = probe.probes

    low = 0.0
    high = max(instance.trivial_upper_bound_flow(), precision)
    # Make sure the upper bound really is feasible (it is by construction,
    # but the explicit check keeps the invariant obvious).
    while not probe.probe(high) and probe.probes - probes_before < max_iterations:
        high *= 2.0

    iterations = 0
    while high - low > precision and iterations < max_iterations:
        mid = 0.5 * (low + high)
        if probe.probe(mid):
            high = mid
        else:
            low = mid
        iterations += 1
    return high, probe.probes - probes_before
