"""Deadline-driven on-line policy (EDF on the weighted-flow deadlines).

The transformation of Section 4.3.1 — a max-weighted-flow target ``F`` turns
into per-job deadlines ``d_j(F) = r_j + F / w_j`` — also suggests a very cheap
on-line heuristic that needs no LP at all:

1. maintain a current target ``F`` (starting from an optimistic fluid bound);
2. order active jobs by their induced deadline (earliest deadline first) and
   give each its fastest free machine;
3. whenever a job misses its induced deadline, raise the target (the classic
   doubling scheme used by on-line max-stretch algorithms) so that deadlines
   stay achievable.

The policy is preemptive but never divides a job across machines, so it is a
fair middle ground between the classical heuristics (MCT, SRPT) and the
LP-based adaptation: it uses the paper's *structure* (deadlines induced by
the objective) without its *machinery* (linear programming).

The ``lp_targets`` variant reintroduces exactly one piece of that machinery:
instead of multiplicative doubling, a stale target is re-located by a short
bisection backed by the shared :class:`~repro.core.replanning.ReplanProbe`
(feasibility of the remaining work against the induced deadlines), so the
deadlines the EDF ranking uses are the tightest achievable ones.  The default
(``lp_targets=False``) keeps the policy LP-free and byte-identical to its
pre-refactor behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.instance import Instance
from ..core.replanning import ReplanProbe, remaining_subinstance
from ..lp.backends import canonical_backend
from ..simulation.state import AllocationDecision, SimulationState
from .base import OnlineScheduler, fastest_free_assignment

__all__ = ["DeadlineDrivenScheduler"]

#: Bisection steps for the LP-backed target search (the target is advisory —
#: EDF only needs the deadline *order* — so a coarse location suffices).
_LP_TARGET_STEPS = 12

#: Multiplicative increase of the target whenever some active job can no
#: longer meet its induced deadline (without ``lp_targets``).
_GROWTH_FACTOR = 1.5


class DeadlineDrivenScheduler(OnlineScheduler):
    """Earliest-deadline-first on the deadlines induced by a weighted-flow target.

    The target starts from the fluid lower bound of the first jobs the
    policy sees and grows by ``_GROWTH_FACTOR`` whenever some active job can
    no longer meet its induced deadline.

    Parameters
    ----------
    lp_targets:
        When ``True``, a violated target is re-located with feasibility
        probes through a shared :class:`~repro.core.replanning.ReplanProbe`
        instead of multiplicative growth (see the module docstring).
    backend:
        LP backend for the ``lp_targets`` probes; checked even when
        ``lp_targets`` is off, so a mistyped name never gets a cell of its
        own.
    """

    name = "deadline-driven"
    divisible = False

    def __init__(self, lp_targets: bool = False, backend: str = "scipy") -> None:
        canonical_backend(backend)  # raises on unknown names
        self.lp_targets = lp_targets
        self.backend = backend
        self._target = 0.0
        # The target search only asks yes/no questions (build_schedule=False),
        # so the probe canonicalises each sub-instance by deadline rank:
        # probes from different events share one LP skeleton per rank
        # pattern, which is what lifts the cache hit rate to ~0.8
        # (bench_replanning.py asserts at least 0.75).
        self._probe: Optional[ReplanProbe] = (
            ReplanProbe(backend=backend, rank_keyed=True) if lp_targets else None
        )

    def reset(self, instance: Instance) -> None:
        self._target = 0.0

    def rebind(self, instance: Instance) -> None:
        # The running target is index-free and deliberately survives window
        # growth (resetting it on every arrival would forget the adaptation);
        # deadlines are recomputed from the instance at each decide().
        return None

    def compact(self, instance: Instance, mapping: Dict[int, int]) -> None:
        # The running target is index-free and the probe is keyed purely by
        # LP structure: both survive window compaction untouched.
        return None

    @property
    def replan_probe(self) -> Optional[ReplanProbe]:
        """The shared parametric probe (``None`` unless ``lp_targets``)."""
        return self._probe

    # ------------------------------------------------------------------ #
    def _fluid_flow_bound(self, state: SimulationState, job_index: int) -> float:
        """Fluid-time weighted flow the job would reach finishing as fast as possible."""
        job = state.instance.jobs[job_index]
        best_finish = state.time + state.fastest_remaining_work(job_index)
        return job.weight * (best_finish - job.release_date)

    def _raise_target_if_needed(self, state: SimulationState, active: List[int]) -> None:
        """Ensure every active job can still (optimistically) meet its deadline."""
        needed = max((self._fluid_flow_bound(state, j) for j in active), default=0.0)
        if self._target <= 0.0:
            self._target = max(needed, 1e-9)
            if self.lp_targets and active:
                self._target = self._probed_target(state, active, self._target)
            return
        if self._target < needed:
            if self.lp_targets:
                self._target = self._probed_target(state, active, max(needed, 1e-9))
            else:
                while self._target < needed:
                    self._target *= _GROWTH_FACTOR

    def _probed_target(
        self, state: SimulationState, active: List[int], lower: float
    ) -> float:
        """Smallest (coarsely located) feasible target at or above ``lower``.

        Feasibility of a candidate ``F`` means the remaining work fits within
        the induced deadlines ``d_j(F) = r_j + F / w_j``; the probe shares one
        cached LP skeleton per active-set structure across events.
        """
        instance = state.instance
        remaining = [state.remaining_fraction(j) for j in active]
        sub_instance, ordered = remaining_subinstance(
            instance, state.time, active, remaining
        )

        def feasible(objective: float) -> bool:
            deadlines = [
                instance.jobs[j].release_date + objective / instance.jobs[j].weight
                for j in ordered
            ]
            if any(deadline < state.time for deadline in deadlines):
                return False
            return self._probe.check(
                sub_instance, deadlines, build_schedule=False
            ).feasible

        # Grow an upper bracket from the fluid bound, then bisect coarsely.
        upper = max(lower, 1e-9)
        growth = 0
        while not feasible(upper) and growth < 40:
            upper *= 2.0
            growth += 1
        low, high = lower, upper
        for _ in range(_LP_TARGET_STEPS):
            if high - low <= 1e-3 * max(1.0, high):
                break
            mid = 0.5 * (low + high)
            if feasible(mid):
                high = mid
            else:
                low = mid
        return high

    def _deadline(self, state: SimulationState, job_index: int) -> float:
        job = state.instance.jobs[job_index]
        return job.release_date + self._target / job.weight

    # ------------------------------------------------------------------ #
    def decide(self, state: SimulationState) -> AllocationDecision:
        instance = state.instance
        active = state.active_jobs()
        self._raise_target_if_needed(state, active)

        ranked = sorted(active, key=lambda j: self._deadline(state, j))
        return fastest_free_assignment(instance, ranked)
