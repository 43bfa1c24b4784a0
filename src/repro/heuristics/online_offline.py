"""On-line adaptation of the off-line algorithm (Section 5 of the paper).

The paper's conclusion reports that "a simple on-line adaptation of our
off-line algorithm, enhanced by a simple preemption scheme, produces better
schedules than classical scheduling heuristics like Minimum Completion Time".
This module implements that adaptation:

* every time the set of active jobs changes (an arrival or a completion), the
  policy re-optimises the *remaining* work: it looks for the smallest
  objective ``F`` such that every active job ``J_j`` can finish by the
  deadline ``d_j(F) = r_j + F / w_j`` — note that the *original* release
  dates are used, so the weighted flow already accumulated while waiting is
  accounted for — given that no processing can happen before the current
  time;
* an optimal allocation of the least such ``F`` becomes the current *plan*;
* between events the policy simply follows the plan, asking the engine to
  wake it up at the plan's next assignment boundary.

Each re-planning runs the off-line algorithm of :mod:`repro.core.maxflow`
(Sections 4.3–4.4) on the remaining work, and finds the exact optimum:

1. bounds: ``F`` is at least the weighted flow already accumulated plus the
   fluid bound on the remaining work, and at most the weighted flow of the
   sequential schedule (each job on its fastest machine, one after the
   other), which meets that bound by construction and so needs no probe;
2. milestones: above the lower bound every deadline lies past the current
   time, so the epochal order only changes where two deadlines cross
   (:func:`~repro.core.milestones.compute_milestones` with the original
   release dates as deadline origins);
3. a binary search over those milestones, each probe the System (3)/(5)
   LP of the range its milestone tops, ``F`` minimised over
   ``[m_{k-1}, m_k]`` (:func:`~repro.core.maxflow.build_range_model` and
   :func:`~repro.core.maxflow.probe_range`, the off-line search's own): at
   most ``ceil(log2(k + 1))`` probes for ``k`` milestones.  An infeasible
   probe moves the search up; a minimum strictly above ``m_{k-1}`` is the
   least feasible ``F`` and ends the search, its optimal allocation being
   the plan; a minimum at ``m_{k-1}`` moves the search down;
4. the plan is the optimal allocation of the last feasible probe, whose
   range the search ends in.  Only when no probe was feasible does one more
   range LP over the top range, feasible by construction, run
   (:func:`~repro.core.maxflow.minimize_over_range`).

Every LP is solved cold by HiGHS, so ``k`` milestones cost at most
``ceil(log2(k + 1)) + 1`` LPs per replanning, and a replanning whose probe
pins ``F*`` or finds a feasible range costs no final LP.  The ``backend``
and ``parametric`` parameters are accepted for compatibility and change
nothing: no verdict-only feasibility probe is made.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.formulations import (
    AllocationModel,
    divisible_schedule_from_solution,
    preemptive_schedule_from_solution,
)
from ..core.instance import Instance
from ..core.maxflow import build_range_model, minimize_over_range, probe_range
from ..core.milestones import compute_milestones
from ..core.replanning import remaining_subinstance
from ..core.schedule import Schedule
from ..exceptions import InfeasibleProblemError, SolverError
from ..lp import LPSolution
from ..lp.backends import canonical_backend
from ..simulation.state import AllocationDecision, SimulationState
from .base import OnlineScheduler

__all__ = ["OnlineOfflineAdaptationScheduler"]


class OnlineOfflineAdaptationScheduler(OnlineScheduler):
    """Plan-following on-line adaptation of the off-line LP algorithm.

    Each re-planning finds the exact optimum of the remaining work by the
    paper's milestone search (see the module docstring).

    Parameters
    ----------
    preemptive:
        When ``True`` the plan is built in the preemptive (non-divisible)
        model; the default ``False`` uses the divisible model, matching the
        paper's framework.
    backend:
        Validated (an unknown name raises ``ValueError``), then unused:
        every LP of the search is a HiGHS range LP.
    period:
        Optional replanning period.  ``None`` (default) replans only when the
        active set changes, as the paper describes; a positive value
        additionally forces a re-optimisation whenever the current plan is
        older than ``period`` time units (the policy asks the engine for a
        wake-up accordingly), which lets stale plans react to progress drift.
        Scenario timescales span orders of magnitude, so the *effective*
        period is floored at ``horizon / (8 n)`` (``horizon`` = the
        sequential-makespan upper bound computed at :meth:`reset`): a period
        far below the instance's timescale would force O(makespan / period)
        wake events and trip the engine's cycling budget instead of ever
        finishing.
    parametric:
        Unused: kept so that existing ``parametric=`` variants still
        construct; every value plans the same schedule.
    """

    divisible = True

    def __init__(
        self,
        preemptive: bool = False,
        backend: str = "scipy",
        period: Optional[float] = None,
        parametric: bool = True,
    ) -> None:
        if period is not None and period <= 0:
            raise ValueError("period must be positive (or None for event-driven replanning)")
        canonical_backend(backend)  # raises on unknown names
        self.preemptive = preemptive
        self.backend = backend
        self.period = period
        self.parametric = parametric
        self.name = "online-offline" + ("-preemptive" if preemptive else "")
        self.divisible = not preemptive
        self._plan: Optional[List[Tuple[int, int, float, float]]] = None
        self._plan_active: Optional[frozenset] = None
        self._plan_time: float = 0.0
        self._effective_period: Optional[float] = None
        self.replanning_count = 0

    # ------------------------------------------------------------------ #
    def reset(self, instance: Instance) -> None:
        self._plan = None
        self._plan_active = None
        self._plan_time = 0.0
        self.replanning_count = 0
        if self.period is not None:
            # Floor the period at the instance's timescale: at most ~8n
            # period-forced wake events over the sequential-makespan horizon,
            # comfortably inside the engine's 50n + 1000 event budget.
            horizon = max(
                (job.release_date for job in instance.jobs), default=0.0
            ) + sum(instance.min_cost(j) for j in range(instance.num_jobs))
            floor = horizon / max(8 * instance.num_jobs, 1)
            self._effective_period = max(self.period, floor)
        else:
            self._effective_period = None

    def rebind(self, instance: Instance) -> None:
        # The plan and its active-set snapshot are index-keyed and window
        # growth keeps existing indices stable; the next decide() sees the
        # grown active set differ from the snapshot and replans.  The period
        # floor deliberately stays as computed at reset(): re-deriving it
        # from the grown window would change replanning times mid-stream.
        return None

    def compact(self, instance: Instance, mapping: Dict[int, int]) -> None:
        # The current plan references window job indices; remap it so a
        # compaction between events never forces an extra replanning (the
        # plan's content — machines, times — is index-free).
        if self._plan:
            self._plan = [
                (machine, mapping[job], start, end)
                for machine, job, start, end in self._plan
                if job in mapping
            ]
        if self._plan_active is not None:
            if all(job in mapping for job in self._plan_active):
                self._plan_active = frozenset(mapping[job] for job in self._plan_active)
            else:
                # A planned job completed since the last replanning: the next
                # decide() must replan, exactly as it would have without the
                # compaction (a remap that silently dropped the member would
                # suppress it).
                self._plan_active = None

    # ------------------------------------------------------------------ #
    # Re-planning                                                          #
    # ------------------------------------------------------------------ #
    def _build_sub_instance(self, state: SimulationState) -> Tuple[Instance, List[int]]:
        """Build the instance of remaining work for the currently active jobs."""
        active = sorted(state.active_jobs())
        remaining = [state.remaining_fraction(job_index) for job_index in active]
        return remaining_subinstance(state.instance, state.time, active, remaining)

    @staticmethod
    def _boundaries(
        sub_instance: Instance, origins: List[float], weights: List[float], now: float
    ) -> List[float]:
        """The search's range boundaries: ``[lower, milestones..., upper]``.

        ``upper`` is feasible by construction; the milestones are those
        strictly inside ``(lower, upper)``.
        """
        # Lower bound: even instantaneous completion cannot beat the weighted
        # flow already accumulated (plus the fluid lower bound on remaining work).
        lower = 0.0
        for position, origin in enumerate(origins):
            fluid = sub_instance.lower_bound_flow(position)
            lower = max(lower, weights[position] * (now - origin + fluid))

        # Upper bound: process the remaining work sequentially, each job on its
        # fastest machine, in active order.  That schedule meets the bound.
        cursor = now
        upper = lower
        for position, origin in enumerate(origins):
            cursor += sub_instance.min_cost(position)
            upper = max(upper, weights[position] * (cursor - origin))

        # Above ``lower`` every deadline lies past ``now``, so the epochal
        # order in ``(lower, upper)`` only changes where two deadlines cross.
        milestones = compute_milestones(sub_instance.jobs, origins=origins)
        return [lower] + [value for value in milestones if lower < value < upper] + [upper]

    def _replan(self, state: SimulationState) -> None:
        """Recompute the plan for the current active set (milestone search)."""
        self.replanning_count += 1
        instance = state.instance
        sub_instance, active = self._build_sub_instance(state)
        origins = [instance.jobs[job_index].release_date for job_index in active]
        weights = [instance.jobs[job_index].weight for job_index in active]
        boundaries = self._boundaries(sub_instance, origins, weights, state.time)

        def range_model(index: int) -> AllocationModel:
            """System (3)/(5) over ``(boundaries[index - 1], boundaries[index]]``."""
            return build_range_model(
                sub_instance,
                boundaries[index - 1],
                boundaries[index],
                preemptive=self.preemptive,
                origins=origins,
            )

        # Binary search for the least feasible milestone; the last boundary
        # is feasible without a probe.  Each probe minimises F over the range
        # its milestone tops, so a feasible probe leaves that range's optimal
        # allocation behind: it is the plan if the search ends in its range
        # (every later feasible probe replaces it), and the search stops at
        # once when its minimum pins F* strictly inside the range.
        found: Optional[Tuple[AllocationModel, float, LPSolution]] = None
        low, high = 1, len(boundaries) - 1
        while low < high:
            middle = (low + high) // 2
            alloc = range_model(middle)
            probe = probe_range(alloc, boundaries[middle - 1], boundaries[middle])
            if not probe.feasible:
                low = middle + 1
                continue
            found = (alloc, probe.threshold, probe.solution)
            if probe.pinned:
                break
            high = middle

        if found is None:
            # Only the top range, feasible by construction, is left: one
            # System (3)/(5) LP over it gives the least feasible F.
            alloc = range_model(high)
            try:
                objective, solution, _ = minimize_over_range(
                    alloc, boundaries[high - 1], boundaries[high]
                )
            except (InfeasibleProblemError, SolverError):
                pass  # decide() falls back to first fit
            else:
                found = (alloc, objective, solution)
        plan: List[Tuple[int, int, float, float]] = []
        if found is not None:
            alloc, objective, solution = found
            if self.preemptive:
                schedule = preemptive_schedule_from_solution(
                    alloc, solution, objective_value=objective
                )
            else:
                schedule = divisible_schedule_from_solution(
                    alloc, solution, objective_value=objective
                )
            plan = self._plan_from_schedule(schedule, active)
        self._plan = plan
        self._plan_active = frozenset(active)
        self._plan_time = state.time

    @staticmethod
    def _plan_from_schedule(
        schedule: Schedule, active: List[int]
    ) -> List[Tuple[int, int, float, float]]:
        """Map a sub-instance schedule to (machine, original job, start, end) tuples."""
        plan = []
        for piece in schedule.pieces:
            original_job = active[piece.job_index]
            plan.append((piece.machine_index, original_job, piece.start, piece.end))
        plan.sort(key=lambda item: (item[0], item[2]))
        return plan

    # ------------------------------------------------------------------ #
    # Plan following                                                       #
    # ------------------------------------------------------------------ #
    def decide(self, state: SimulationState) -> AllocationDecision:
        active = frozenset(state.active_jobs())
        stale = (
            self._effective_period is not None
            and self._plan is not None
            and state.time - self._plan_time >= self._effective_period - 1e-12
        )
        if self._plan is None or self._plan_active != active or stale:
            self._replan(state)

        if not self._plan:
            # Fallback: no feasible plan was produced (should not happen for a
            # valid instance); behave like a greedy exclusive policy so that
            # the simulation still terminates.
            assignments: Dict[int, int] = {}
            used = set()
            for job_index in sorted(active):
                for machine_index in range(state.instance.num_machines):
                    if machine_index in used:
                        continue
                    if state.instance.cost(machine_index, job_index) != float("inf"):
                        assignments[machine_index] = job_index
                        used.add(machine_index)
                        break
            return AllocationDecision(
                shares={m: [(j, 1.0)] for m, j in assignments.items()}
            )

        now = state.time
        epsilon = 1e-9
        shares: Dict[int, List[Tuple[int, float]]] = {}
        wake_candidates: List[float] = []
        for machine_index, job_index, start, end in self._plan:
            if job_index not in active:
                continue
            if end <= now + epsilon:
                continue
            if start <= now + epsilon:
                # Piece currently running on this machine.
                if machine_index not in shares:
                    shares[machine_index] = [(job_index, 1.0)]
                    wake_candidates.append(end)
            else:
                # Future piece: make sure we are woken up when it starts.
                wake_candidates.append(start)

        if self._effective_period is not None:
            wake_candidates.append(self._plan_time + self._effective_period)
        wake_up_at = min((t for t in wake_candidates if t > now + epsilon), default=None)
        return AllocationDecision(shares=shares, wake_up_at=wake_up_at)
