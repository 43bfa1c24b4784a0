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
* the witness schedule of the best feasible ``F`` becomes the current *plan*;
* between events the policy simply follows the plan, asking the engine to
  wake it up at the plan's next assignment boundary.

Feasibility of an objective value is decided with the paper's Lemma 1 applied
to the sub-instance of remaining work.  The objective value itself is located
with a bounded-precision bisection: unlike the off-line solver we do not need
the exact optimum here — the plan is re-built at the next event anyway — and
the paper describes the adaptation as deliberately simple.

Parametric replanning
---------------------
Feasibility probes are answered by a shared
:class:`~repro.core.replanning.ReplanProbe` (the default, ``parametric=True``)
which caches one lowered LP skeleton per active-set structure and re-solves
with refreshed remaining-work coefficients and interval lengths only; the
answers — and the witness schedules, hence the executed output — are byte
for byte identical to the from-scratch rebuild (``parametric=False``), which
is kept as the reference path for the identity property tests.  The
``replanning_model_builds`` counter exposes the economy either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.deadline import check_deadline_feasibility
from ..core.instance import Instance
from ..core.replanning import ReplanProbe, remaining_subinstance
from ..core.schedule import Schedule
from ..lp.backends import canonical_backend
from ..simulation.state import AllocationDecision, SimulationState
from .base import OnlineScheduler

__all__ = ["OnlineOfflineAdaptationScheduler"]

#: Relative precision of the re-planning bisection on the objective value
#: (the probe tolerance of the replanning runtime).
_RELATIVE_PRECISION = 1e-3

#: Hard cap on bisection steps per re-planning.
_MAX_BISECTION_STEPS = 40


class OnlineOfflineAdaptationScheduler(OnlineScheduler):
    """Plan-following on-line adaptation of the off-line LP algorithm.

    Each re-planning bisects the objective value to a relative precision of
    ``_RELATIVE_PRECISION`` in at most ``_MAX_BISECTION_STEPS`` steps.

    Parameters
    ----------
    preemptive:
        When ``True`` the plan is built in the preemptive (non-divisible)
        model; the default ``False`` uses the divisible model, matching the
        paper's framework.
    backend:
        LP backend used for the feasibility probes (checked on both the
        parametric and the from-scratch path).
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
        ``True`` (default) answers feasibility probes through a shared
        :class:`~repro.core.replanning.ReplanProbe`; ``False`` rebuilds every
        feasibility LP from scratch (the pre-refactor reference path).  Both
        paths produce byte-identical schedules.
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
        # Rank-keyed: the verdict-only bisection probes collapse onto shared
        # skeletons across events (same deadline-rank pattern), so the
        # template's persisted basis warm-starts re-solves event-to-event,
        # not just within one bisection.
        self._probe: Optional[ReplanProbe] = (
            ReplanProbe(preemptive=preemptive, backend=backend, rank_keyed=True)
            if parametric
            else None
        )
        self._plan: Optional[List[Tuple[int, int, float, float]]] = None
        self._plan_active: Optional[frozenset] = None
        self._plan_time: float = 0.0
        self._effective_period: Optional[float] = None
        self.replanning_count = 0
        self._scratch_builds = 0

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

    @property
    def replan_probe(self) -> Optional[ReplanProbe]:
        """The shared parametric probe (``None`` on the from-scratch path)."""
        return self._probe

    @property
    def replanning_model_builds(self) -> int:
        """Cumulative feasibility-LP constructions (both probe paths)."""
        if self._probe is not None:
            return self._probe.model_constructions
        return self._scratch_builds

    @property
    def replanning_feasibility_checks(self) -> int:
        """Cumulative feasibility probes answered."""
        if self._probe is not None:
            return self._probe.probes
        return self._scratch_builds

    # ------------------------------------------------------------------ #
    # Re-planning                                                          #
    # ------------------------------------------------------------------ #
    def _build_sub_instance(self, state: SimulationState) -> Tuple[Instance, List[int]]:
        """Build the instance of remaining work for the currently active jobs."""
        active = sorted(state.active_jobs())
        remaining = [state.remaining_fraction(job_index) for job_index in active]
        return remaining_subinstance(state.instance, state.time, active, remaining)

    def _feasible(
        self,
        sub_instance: Instance,
        active: List[int],
        state: SimulationState,
        objective: float,
        build_schedule: bool = True,
    ):
        """Deadline-feasibility probe at objective value ``objective``."""
        instance = state.instance
        deadlines = []
        for job_index in active:
            original = instance.jobs[job_index]
            deadlines.append(original.release_date + objective / original.weight)
        if any(deadline < state.time for deadline in deadlines):
            return None
        if self._probe is not None:
            return self._probe.check(sub_instance, deadlines, build_schedule=build_schedule)
        self._scratch_builds += 1
        return check_deadline_feasibility(
            sub_instance,
            deadlines,
            preemptive=self.preemptive,
            build_schedule=build_schedule,
            backend=self.backend,
        )

    def _replan(self, state: SimulationState) -> None:
        """Recompute the plan for the current active set."""
        self.replanning_count += 1
        instance = state.instance
        sub_instance, active = self._build_sub_instance(state)

        # Lower bound: even instantaneous completion cannot beat the weighted
        # flow already accumulated (plus the fluid lower bound on remaining work).
        lower = 0.0
        for position, job_index in enumerate(active):
            original = instance.jobs[job_index]
            already = state.time - original.release_date
            fluid = sub_instance.lower_bound_flow(position)
            lower = max(lower, original.weight * (already + fluid))

        # Upper bound: process the remaining work sequentially, each job on its
        # fastest machine, in active order.
        cursor = state.time
        upper = lower
        for position, job_index in enumerate(active):
            original = instance.jobs[job_index]
            cursor += sub_instance.min_cost(position)
            upper = max(upper, original.weight * (cursor - original.release_date))
        upper = max(upper, lower * (1.0 + _RELATIVE_PRECISION) + 1e-9)

        # Verdict-only bisection: no witness schedule is materialised while
        # narrowing the objective (on warm-start-capable backends these
        # re-solves run a few dual-simplex pivots from the previous basis).
        # One final solve at the accepted objective rebuilds the witness —
        # the identical LP the last feasible probe answered, so the executed
        # schedule is byte-identical to solving with witnesses throughout.
        best = self._feasible(sub_instance, active, state, upper, build_schedule=False)
        best_objective = upper
        steps = 0
        low, high = lower, upper
        while (
            best is not None
            and high - low > _RELATIVE_PRECISION * max(1.0, high)
            and steps < _MAX_BISECTION_STEPS
        ):
            mid = 0.5 * (low + high)
            probe = self._feasible(sub_instance, active, state, mid, build_schedule=False)
            if probe is not None and probe.feasible:
                high = mid
                best = probe
                best_objective = mid
            else:
                low = mid
            steps += 1

        plan: List[Tuple[int, int, float, float]] = []
        if best is not None and best.feasible:
            witness = self._feasible(
                sub_instance, active, state, best_objective, build_schedule=True
            )
            if witness is not None and witness.feasible and witness.schedule is not None:
                plan = self._plan_from_schedule(witness.schedule, active)
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
