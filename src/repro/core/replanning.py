"""Parametric deadline-feasibility probes for on-line replanning.

An on-line policy can re-locate its objective at every replanning event
through a search on ``F``: ``deadline-driven`` with LP targets bisects ``F``
(``online-offline`` probes its milestones with the range LPs of
:mod:`repro.core.maxflow` instead).  Each step is one deadline-feasibility test
(:func:`repro.core.deadline.check_deadline_feasibility`) over the
sub-instance of remaining work, and from scratch every one of those tests
rebuilds its allocation LP: a simulation with ``E`` events performs
``E × search-steps`` builds.

:class:`ReplanProbe` amortises that work.  The observation is the same one
behind the milestone machinery of :mod:`repro.core.maxflow`: the *structure*
of System (2) — how many intervals the epochal times cut, and which
``alpha[i, j, t]`` variables are allowed — is determined entirely by the
allowed/forbidden pattern, while the remaining-work bounds only change
*numbers* (constraint coefficients ``c_{i,j} · remaining_j`` and interval
lengths on the inequality right-hand side).  The probe therefore

* computes the structure signature of every feasibility question it is asked
  (interval count plus the allowed-variable bitmap of
  :func:`~repro.core.formulations.allowed_mask` — the same mask the builder
  uses, vectorised, no LP objects);
* keeps one **lowered matrix template** per distinct signature in an LRU
  cache; a cache hit answers the probe by writing the current coefficients
  and interval lengths into copies of the template's arrays and re-solving —
  no rebuild;
* on a miss, builds the matrix form with the exact same
  :func:`~repro.core.formulations.build_allocation_model` call the
  from-scratch path makes, and takes the value positions for later
  refreshes from the builder's own row layout
  (:func:`~repro.core.formulations.inequality_layout`).

Because a refreshed template reproduces the from-scratch LP **bit for bit**
(same variable order, same constraint order, same coefficient values, same
right-hand sides), the backend returns the identical solution and the witness
schedule is byte-identical to the one ``check_deadline_feasibility`` would
have produced.  The property suite asserts this across the scenario grid.

Replanning events with the same number of active jobs and the same relative
deadline order share a signature, so a simulation builds O(distinct active
job-set structures) models instead of O(events × search steps) — the
economy asserted by ``benchmarks/bench_replanning.py``.

Most checks are verdict-only search steps, so a cache hit touches no
model object at all:

* the signature is computed from floats — the interval cuts are
  :func:`~repro.core.intervals.distinct_sorted` of the epochal times (what
  :func:`~repro.core.intervals.build_constant_intervals` cuts at) and the
  mask is ``allowed_mask``'s test evaluated on them with numpy; interval
  objects are built only on a template miss (which asserts the float mask
  equals ``allowed_mask``) or for a witness;
* each replanning event keeps its rank-permuted ``Instance`` (and its
  finite-cost mask) per deadline order, so a search validates each
  relabelling once;
* verdict-only checks ask the revised backend for the verdict alone
  (``verdict_only=True``), which skips value extraction and leaves the
  solver state bit-identical.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidInstanceError
from ..lp import LPSolution, MatrixForm
from ..lp.backends import canonical_backend
from ..obs.metrics import Recorder, get_recorder
from ..lp.revised_simplex import BasisState, ProgramHandle, solve_matrix_form_revised
from ..lp.scipy_backend import solve_matrix_form as _scipy_solve_form
from .affine import Affine
from .deadline import DeadlineFeasibility
from .formulations import (
    AllocationModel,
    allowed_mask,
    build_allocation_model,
    divisible_schedule_from_solution,
    inequality_layout,
    preemptive_schedule_from_solution,
)
from .instance import Instance
from .intervals import build_constant_intervals, distinct_sorted
from .job import Job
from .tolerances import ABS_TOL, lt

__all__ = ["ReplanProbe", "remaining_subinstance"]


def remaining_subinstance(
    instance: Instance,
    time: float,
    active: Sequence[int],
    remaining: Sequence[float],
) -> Tuple[Instance, List[int]]:
    """Build the instance of remaining work for the currently active jobs.

    Every active job is re-released at ``time`` with its size and costs scaled
    by its remaining fraction (floored at ``1e-9`` so fully-degenerate jobs
    still carry a well-posed LP column).  ``remaining`` aligns with ``active``
    as given; sub-instance jobs are ordered by ascending original index.
    Returns the sub-instance and the list mapping sub-instance job positions
    back to original job indices.
    """
    paired = sorted(zip(active, remaining))
    jobs = []
    columns = []
    for job_index, fraction in paired:
        original = instance.jobs[job_index]
        fraction = max(float(fraction), 1e-9)
        jobs.append(
            Job(
                name=original.name,
                release_date=time,
                weight=original.weight,
                size=(original.size * fraction) if original.size is not None else None,
                databanks=original.databanks,
            )
        )
        columns.append(
            [instance.cost(i, job_index) * fraction for i in range(instance.num_machines)]
        )
    costs = [
        [columns[j][i] for j in range(len(paired))] for i in range(instance.num_machines)
    ]
    sub_instance = Instance.from_costs(jobs, costs, machines=list(instance.machines))
    # ``from_costs`` re-sorts by release date; all release dates are equal to
    # ``time`` so the original order (ascending job index) is preserved
    # because Python's sort is stable.
    return sub_instance, [job_index for job_index, _ in paired]


#: Lowered System (2) skeletons cached per probe (LRU).
_MAX_CACHED_MODELS = 64


@dataclass
class _ModelTemplate:
    """One cached System (2) skeleton: lowered model plus refresh positions."""

    alloc: AllocationModel
    #: Machine/job source of every inequality coefficient, in CSR data order.
    coef_machines: np.ndarray
    coef_jobs: np.ndarray
    #: Interval index feeding each inequality row's right-hand side.
    row_intervals: np.ndarray
    #: Persistent solver state for warm re-solves (ISSUE 9): the last usable
    #: basis of the in-house revised backend and the kept-alive assembled
    #: program (rhs-only re-solves within one event skip assembly and
    #: refactorisation entirely).
    basis: Optional[BasisState] = None
    solver_handle: Optional[ProgramHandle] = None


class ReplanProbe:
    """Structure-cached deadline-feasibility oracle for replanning loops.

    ``check(instance, deadlines)`` answers exactly like
    :func:`repro.core.deadline.check_deadline_feasibility` — including the
    witness schedule, byte for byte — but builds the allocation LP only when
    it meets a structure it has never seen.  One probe serves any number of
    sub-instances (and any number of simulations); it is keyed purely by
    structure, so campaign-style reuse across runs is free.

    Two amortisations sit on top of the structure cache:

    * **Event-scoped refresh** (always on): within one replanning event the
      coefficient values are constant — repeated checks on the same
      (sub-)instance object reuse the refreshed constraint matrix and only
      rewrite the right-hand sides.
    * **Rank-pattern canonicalisation** (``rank_keyed=True``): for
      equal-release sub-instances asked without a witness schedule
      (``build_schedule=False``), jobs are relabelled in deadline order
      before the structure key is computed.  The LP structure of such an
      instance depends only on the deadline *rank pattern* plus the
      relabelled eligibility bitmap, so probes from different events — and
      different runs — collapse onto one skeleton per pattern.  The
      relabelled LP is a row/column permutation of the original (same
      constraint set), so the feasibility answer is unchanged; witness
      callers keep the exact unpermuted path.

    Attributes
    ----------
    probes:
        Feasibility questions answered.
    lp_solves:
        Questions that reached a solver (all of them except the trivially
        infeasible deadline-before-release rejections).
    model_constructions:
        Allocation-model builds (structure-cache misses).
    cache_hits:
        Questions answered by refreshing a cached template.
    rank_canonicalisations:
        Probes answered through a deadline-rank relabelling.
    coefficient_refreshes, event_refresh_reuses:
        Constraint-matrix rewrites performed vs skipped through the
        event-scoped cache.
    """

    def __init__(
        self,
        *,
        preemptive: bool = False,
        backend: str = "scipy",
        rank_keyed: bool = False,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.preemptive = preemptive
        self.backend = backend
        self._label = canonical_backend(backend)  # raises on unknown
        self._rank_keyed = rank_keyed
        # Injected metrics sink (None resolves to the process default at
        # probe time; the obs-recorder-default lint rule forbids concrete
        # recorders here).
        self.recorder = recorder
        self._templates: "OrderedDict[Tuple, _ModelTemplate]" = OrderedDict()
        # Event-scoped refresh cache: coefficients are constant while the
        # same (sub-)instance object is probed repeatedly (one replanning
        # event), so the refreshed constraint matrix can be reused across a
        # whole search.  Keyed by (template key, job permutation); the
        # strong reference to the instance keeps identity checks sound.
        self._event_instance: Optional[Instance] = None
        self._event_forms: Dict[Tuple, object] = {}
        # Per-event views of the instance, keyed by the job permutation
        # (``None`` for the identity): the (rank-permuted) instance and its
        # transposed finite-cost mask.  Cleared with the event scope.
        self._event_views: Dict[Optional[Tuple[int, ...]], Tuple[Instance, np.ndarray]] = {}
        self.probes = 0
        self.lp_solves = 0
        self.model_constructions = 0
        self.cache_hits = 0
        self.rank_canonicalisations = 0
        self.coefficient_refreshes = 0
        self.event_refresh_reuses = 0

    # ------------------------------------------------------------------ #
    def check(
        self,
        instance: Instance,
        deadlines: Sequence[float],
        *,
        build_schedule: bool = True,
    ) -> DeadlineFeasibility:
        """Decide whether every job fits in ``[r_j, d_j]`` (see module docs).

        Drop-in for :func:`~repro.core.deadline.check_deadline_feasibility`
        with the probe's ``preemptive``/``backend`` configuration; the result
        (and the witness schedule) is identical to the from-scratch path.
        """
        self.probes += 1
        recorder = self.recorder if self.recorder is not None else get_recorder()
        if recorder.enabled:
            recorder.count("replan.probes")
            counters_before = (
                self.model_constructions,
                self.cache_hits,
                self.rank_canonicalisations,
                self.coefficient_refreshes,
                self.event_refresh_reuses,
            )
        if len(deadlines) != instance.num_jobs:
            raise InvalidInstanceError(
                f"expected {instance.num_jobs} deadlines, got {len(deadlines)}"
            )
        deadlines = [float(d) for d in deadlines]
        for job, deadline in zip(instance.jobs, deadlines):
            if lt(deadline, job.release_date, tol=ABS_TOL):
                # Trivially infeasible, exactly as in the from-scratch path.
                return DeadlineFeasibility(
                    feasible=False,
                    schedule=None,
                    num_intervals=0,
                    lp_variables=0,
                    lp_constraints=0,
                    backend=self._label,
                )

        # Event scope: consecutive checks on the same instance object (one
        # replanning event's search) share refreshed coefficient arrays.
        if instance is not self._event_instance:
            self._event_instance = instance
            self._event_forms.clear()
            self._event_views.clear()

        order: Optional[Tuple[int, ...]] = None
        if self._rank_keyed and not build_schedule and instance.num_jobs > 1:
            order = self._rank_order(instance, deadlines)
        if order is not None:
            # Rank-pattern canonicalisation: relabel the jobs in deadline
            # order.  For the equal-release sub-instances of the replanning
            # loops the LP *structure* depends only on the deadline rank
            # pattern and the (relabelled) eligibility bitmap, so probes from
            # different events — different deadline values, even different
            # jobs — collapse onto one cached skeleton.  The relabelled LP is
            # a row/column permutation of the original: same constraints,
            # same feasibility answer.  Gated to ``build_schedule=False``
            # callers (the witness schedule would come back permuted).
            self.rank_canonicalisations += 1
            deadlines = [deadlines[k] for k in order]
        instance, finite = self._event_view(instance, order)

        # The interval cuts are the merged epochal times, exactly as
        # ``build_constant_intervals`` computes them; the allowed mask is
        # ``allowed_mask``'s test evaluated on those floats.  Interval
        # objects are only built for a template miss or a witness.
        releases = instance.release_dates
        epochal_times = releases + deadlines
        cuts = np.array(distinct_sorted(epochal_times), dtype=float)
        lower = cuts[:-1, None]
        upper = cuts[1:, None]
        allowed = ~(np.array(releases, dtype=float)[None, :] > lower + ABS_TOL)
        allowed &= ~(np.array(deadlines, dtype=float)[None, :] < upper - ABS_TOL)
        allowed = allowed[:, :, None] & finite[None, :, :]
        num_intervals = cuts.size - 1
        key = (instance.num_machines, instance.num_jobs, num_intervals, allowed.tobytes())

        template = self._templates.get(key)
        if template is None:
            template = self._build_template(instance, deadlines, key, allowed, cuts)
        else:
            self._templates.move_to_end(key)
            self.cache_hits += 1
        form = self._refresh(template, instance, cuts, event_key=(key, order))

        self.lp_solves += 1
        solution = self._solve_template(template, form, verdict_only=not build_schedule)
        if recorder.enabled:
            # One delta emission per probe (the per-counter increments are
            # spread over the template/refresh helpers above).
            recorder.count("replan.lp_solves")
            recorder.count(
                "replan.template_builds", float(self.model_constructions - counters_before[0])
            )
            recorder.count("replan.cache_hits", float(self.cache_hits - counters_before[1]))
            recorder.count(
                "replan.rank_canonicalisations",
                float(self.rank_canonicalisations - counters_before[2]),
            )
            recorder.count(
                "replan.coefficient_refreshes",
                float(self.coefficient_refreshes - counters_before[3]),
            )
            recorder.count(
                "replan.event_refresh_reuses",
                float(self.event_refresh_reuses - counters_before[4]),
            )

        alloc = template.alloc
        if not solution.is_optimal:
            return DeadlineFeasibility(
                feasible=False,
                schedule=None,
                num_intervals=num_intervals,
                lp_variables=alloc.form.num_variables,
                lp_constraints=alloc.form.num_constraints,
                backend=solution.backend,
            )

        schedule = None
        if build_schedule:
            # The cached skeleton carries the intervals and costs of the probe
            # that built it; rebind the current ones for reconstruction (the
            # variable mapping — columns and iteration order — is shared).
            intervals = build_constant_intervals(epochal_times)
            bound = replace(alloc, instance=instance, intervals=intervals)
            if self.preemptive:
                schedule = preemptive_schedule_from_solution(bound, solution)
            else:
                schedule = divisible_schedule_from_solution(bound, solution)

        return DeadlineFeasibility(
            feasible=True,
            schedule=schedule,
            num_intervals=num_intervals,
            lp_variables=alloc.form.num_variables,
            lp_constraints=alloc.form.num_constraints,
            backend=solution.backend,
        )

    # ------------------------------------------------------------------ #
    def _solve_template(
        self, template: _ModelTemplate, form: MatrixForm, *, verdict_only: bool
    ) -> LPSolution:
        """Solve one refreshed probe LP with the configured backend.

        The in-house revised backend warm-starts every probe from the
        template's persisted basis: the probe LPs have a zero objective, so
        any basis stays dual feasible across the deadline/coefficient
        refreshes and a re-solve is a few dual-simplex pivots.  Warm-started
        vertices depend on the basis *history*, so witness schedules built
        from them are a deterministic function of the probe's solve sequence
        rather than of each LP in isolation — a CODE_EPOCH-gated semantic
        (2005.6); within a run the sequence is deterministic, so results and
        digests stay reproducible.  Every solve refreshes the stored basis
        for the probes after it.  Verdict-only probes (no witness) skip the
        solver's value extraction; the solver state they leave is the same.
        """
        if self._label == "scipy-highs":
            return _scipy_solve_form(form)
        if template.solver_handle is None:
            template.solver_handle = ProgramHandle()
        result = solve_matrix_form_revised(
            form,
            warm_basis=template.basis,
            handle=template.solver_handle,
            verdict_only=verdict_only,
        )
        if result.basis is not None:
            template.basis = result.basis
        return result.solution

    # ------------------------------------------------------------------ #
    def _event_view(
        self, instance: Instance, order: Optional[Tuple[int, ...]]
    ) -> Tuple[Instance, np.ndarray]:
        """The event instance relabelled by ``order``, and its finite-cost mask.

        Built once per permutation and event: a search asks the same
        sub-instance in a handful of deadline orders, and each order's
        validated ``Instance`` is the same object every time.
        """
        view = self._event_views.get(order)
        if view is None:
            if order is not None:
                instance = Instance(
                    jobs=tuple(instance.jobs[k] for k in order),
                    machines=instance.machines,
                    costs=instance.costs[:, list(order)],
                )
            if len(self._event_views) >= 16:  # one event asks few orders
                self._event_views.clear()
            view = self._event_views[order] = (instance, np.isfinite(instance.costs).T)
        return view

    @staticmethod
    def _rank_order(
        instance: Instance, deadlines: Sequence[float]
    ) -> Optional[Tuple[int, ...]]:
        """Deadline-rank permutation when the instance is rank-canonicalisable.

        Returns the stable deadline-ascending job order for equal-release
        instances (the shape of every replanning sub-instance), or ``None``
        when the jobs already are in that order or the release dates differ
        (heterogeneous releases make the structure depend on the release /
        deadline interleaving, which relabelling does not normalise).
        """
        releases = instance.release_dates
        first = releases[0]
        if any(release != first for release in releases):
            return None
        order = tuple(sorted(range(instance.num_jobs), key=lambda j: (deadlines[j], j)))
        if order == tuple(range(instance.num_jobs)):
            return None
        return order

    def _build_template(
        self,
        instance: Instance,
        deadlines: Sequence[float],
        key: Tuple,
        allowed: np.ndarray,
        cuts: np.ndarray,
    ) -> _ModelTemplate:
        """Structure miss: run the from-scratch builder and record positions."""
        intervals = build_constant_intervals(list(instance.release_dates) + list(deadlines))
        deadline_functions = [Affine.const(d) for d in deadlines]
        # The probe's float-only cuts and mask must be the builder's; verify
        # once per construction, like the refresh map below.
        assert np.array_equal(allowed, allowed_mask(instance, intervals, deadline_functions)), (
            "ReplanProbe allowed mask does not match formulations.allowed_mask"
        )
        alloc = build_allocation_model(
            instance,
            intervals,
            deadlines=deadline_functions,
            objective_bounds=None,
            sample_objective=0.0,
            preemptive=self.preemptive,
        )
        form = alloc.form
        self.model_constructions += 1

        # The (machine, job) source of every inequality coefficient and the
        # interval of every right-hand side, in the builder's CSR order.
        layout = inequality_layout(alloc.allowed, self.preemptive)
        template = _ModelTemplate(
            alloc=alloc,
            coef_machines=layout.machines,
            coef_jobs=layout.jobs,
            row_intervals=layout.row_intervals,
        )

        # The refresh path must land exactly where the lowering put the
        # original values; verify once per construction, then trust the map.
        refreshed = self._refresh(template, instance, cuts, event_key=None)
        self.coefficient_refreshes -= 1  # verification refresh, not a probe answer
        if form.num_inequalities:
            assert np.array_equal(refreshed.a_ub.data, form.a_ub.data), (
                "ReplanProbe refresh map does not match the lowered form"
            )
        assert np.array_equal(refreshed.b_ub, form.b_ub), (
            "ReplanProbe interval map does not match the lowered form"
        )

        self._templates[key] = template
        while len(self._templates) > _MAX_CACHED_MODELS:
            self._templates.popitem(last=False)
        return template

    def _refresh(
        self,
        template: _ModelTemplate,
        instance: Instance,
        cuts: np.ndarray,
        *,
        event_key: Optional[Tuple] = None,
    ) -> MatrixForm:
        """Write the current coefficients/lengths into a copy of the template.

        Within one replanning event the coefficient values are constant —
        only the interval lengths (right-hand sides) move with the probed
        deadlines — so when ``event_key`` names a (template, permutation)
        pair already refreshed for the current event instance, the whole
        constraint-matrix rewrite is skipped and the cached matrix is reused
        (both backends treat it as read-only).
        """
        form = template.alloc.form
        if not form.num_inequalities:
            return form
        b_ub = (cuts[1:] - cuts[:-1])[template.row_intervals]
        a_ub = self._event_forms.get(event_key) if event_key is not None else None
        if a_ub is None:
            # A shallow copy of the template's matrix with the refreshed
            # values: it shares the (read-only) index arrays, and skips the
            # format validation the template's own construction already ran.
            a_ub = copy.copy(form.a_ub)
            a_ub.data = np.asarray(instance.costs)[
                template.coef_machines, template.coef_jobs
            ].astype(float, copy=False)
            self.coefficient_refreshes += 1
            if event_key is not None:
                if len(self._event_forms) >= 16:  # one event touches few templates
                    self._event_forms.clear()
                self._event_forms[event_key] = a_ub
        else:
            self.event_refresh_reuses += 1
        return MatrixForm(
            c=form.c,
            objective_constant=form.objective_constant,
            objective_sign=form.objective_sign,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=form.a_eq,
            b_eq=form.b_eq,
            bounds=form.bounds,
        )
