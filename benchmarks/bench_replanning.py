"""Acceptance bench for the parametric replanning runtime and the milestone search.

Protects the headline properties of the probe-backed on-line policies:

1. **Byte-identical schedules** — the ``online-offline`` policy backed by the
   shared :class:`~repro.core.replanning.ReplanProbe` (``parametric=True``,
   the default) executes exactly the same schedule, event trace and
   completion times as the from-scratch rebuild (``parametric=False``).
2. **Logarithmic probes** — each replanning event binary-searches the ``k``
   milestones of its remaining work, so it makes at most
   ``ceil(log2(k + 1))`` verdict probes, the same number on both paths.
3. **Model-build economy** — the probe builds one model per *distinct
   active-set structure*.  As events accumulate across runs (the campaign
   case: one scheduler, many seeds) the cumulative checks-per-build ratio
   *grows*: builds are sublinear in events while from-scratch builds stay
   linear.
4. **No slower** — the probe-backed simulation must not lose wall-clock time
   to its bookkeeping.
5. **Few LPs** — the milestone search (verdict probes plus one range LP per
   event) solves at most a fifth of the LPs the ε-bisection it replaced
   solved on the same simulation, and plans no worse.
6. **The LP-targeted deadline policy** — ``deadline-driven:lp_targets=true``
   still bisects through the probe: rank keying lifts its cache hit rate,
   and its bisection steps share the event's refreshed matrices.

Marked ``bench`` (hence tier-2): run with ``-m bench``/``-m tier2`` or by
dropping the tier-1 filter.
"""

from __future__ import annotations

import math
import statistics
import time

import pytest

from repro.heuristics import OnlineOfflineAdaptationScheduler
from repro.simulation import simulate
from repro.workload import random_unrelated_instance


def _staggered_instance(num_jobs: int, seed: int = 7):
    """An unrelated instance whose arrivals stagger into many replanning events."""
    return random_unrelated_instance(
        num_jobs, 3, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=seed
    )


def _run(num_jobs: int, parametric: bool):
    scheduler = OnlineOfflineAdaptationScheduler(parametric=parametric)
    instance = _staggered_instance(num_jobs)
    start = time.perf_counter()
    result = simulate(instance, scheduler)
    elapsed = time.perf_counter() - start
    return result, scheduler, elapsed


class _EventLog(OnlineOfflineAdaptationScheduler):
    """Records ``[milestones, verdict probes]`` for every replanning event."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.events = []

    def _boundaries(self, *args):
        boundaries = super()._boundaries(*args)
        self.events.append([len(boundaries) - 2, 0])
        return boundaries

    def _feasible(self, *args):
        self.events[-1][1] += 1
        return super()._feasible(*args)


@pytest.mark.bench
def test_parametric_replanning_is_byte_identical_with_logarithmic_probes():
    for num_jobs in (8, 16, 24):
        instance = _staggered_instance(num_jobs)
        scratch = _EventLog(parametric=False)
        probed = _EventLog(parametric=True)
        start = time.perf_counter()
        scratch_result = simulate(instance, scratch)
        scratch_seconds = time.perf_counter() - start
        start = time.perf_counter()
        probe_result = simulate(instance, probed)
        probe_seconds = time.perf_counter() - start

        # 1. Byte-identical output.
        assert probe_result.schedule.pieces == scratch_result.schedule.pieces
        assert probe_result.events == scratch_result.events
        assert probe_result.completion_times == scratch_result.completion_times
        assert probe_result.num_preemptions == scratch_result.num_preemptions

        # 2. Per event, a binary search over its k milestones: at most
        # ceil(log2(k + 1)) probes, the same on both paths.
        assert probed.events == scratch.events
        for milestones, probes in probed.events:
            assert probes <= math.ceil(math.log2(milestones + 1)), (num_jobs, milestones, probes)
        assert scratch.replanning_model_builds == scratch.replanning_feasibility_checks
        assert probed.replanning_feasibility_checks == scratch.replanning_feasibility_checks
        assert probed.replanning_count == scratch.replanning_count == len(probed.events)

        print(
            f"[replanning] n={num_jobs}: events={probed.replanning_count} "
            f"milestones={sum(event[0] for event in probed.events)} "
            f"checks={probed.replanning_feasibility_checks} "
            f"builds={probed.replanning_model_builds} "
            f"(from-scratch {scratch.replanning_model_builds}) "
            f"time {scratch_seconds:.2f}s -> {probe_seconds:.2f}s"
        )


@pytest.mark.bench
def test_model_builds_drop_superlinearly_as_events_accumulate():
    """Builds are sublinear in events: the checks-per-build ratio grows.

    One scheduler replays batches of seeded instances (the campaign shape);
    every batch adds a linear slice of replanning events and feasibility
    checks, but active-set structures repeat across runs, so the cumulative
    build count falls ever further behind the from-scratch O(checks) line.
    """
    scheduler = OnlineOfflineAdaptationScheduler()
    probe = scheduler.replan_probe
    ratios = []
    for batch in range(3):
        seeds = range(batch * 4, batch * 4 + 4)
        for seed in seeds:
            # One scheduler across runs: its probe amortises over them.
            simulate(_staggered_instance(10, seed=seed), scheduler)
        ratios.append(probe.probes / probe.model_constructions)
        print(
            f"[replanning] after {(batch + 1) * 4} runs: checks={probe.probes} "
            f"builds={probe.model_constructions} "
            f"(checks/build {ratios[-1]:.2f})"
        )
    # Strictly fewer builds than a linear-in-events baseline at every point...
    assert probe.model_constructions * 5 <= probe.probes
    # ...and the amortisation improves as events accumulate.
    assert ratios[-1] > ratios[0], ratios


@pytest.mark.bench
def test_parametric_replanning_is_no_slower(bench_scale):
    """Probe-backed replanning costs at most 1.10x the from-scratch rebuild.

    Timing each side on its own fails whenever a slow phase of a shared
    host lands on one side alone, so the timing is paired for drift
    cancellation as in ``bench_obs_overhead.py``: ABBA blocks (from-scratch,
    probe, probe, from-scratch) make a monotone load drift hit both arms
    equally within a block, each block yields one paired ratio, and the
    *median* over the blocks is asserted.
    """
    num_jobs = 24 if bench_scale == "small" else 60
    blocks = 5
    # Warm both paths once (imports, scipy setup) before measuring.
    _run(num_jobs, parametric=False)
    _run(num_jobs, parametric=True)
    block_ratios = []
    for _ in range(blocks):
        a1 = _run(num_jobs, parametric=False)[2]
        b1 = _run(num_jobs, parametric=True)[2]
        b2 = _run(num_jobs, parametric=True)[2]
        a2 = _run(num_jobs, parametric=False)[2]
        block_ratios.append((b1 + b2) / (a1 + a2))  # < 1: probe-backed faster
    ratio = statistics.median(block_ratios)
    print(
        f"[replanning] n={num_jobs}: probe-backed / from-scratch time, median "
        f"{ratio:.3f} over {blocks} ABBA blocks "
        f"(spread {min(block_ratios):.3f}..{max(block_ratios):.3f}, bound 1.10)"
    )
    # Generous slack: the probe must never lose meaningful time.
    assert ratio <= 1.10, f"paired-median ratios: {sorted(block_ratios)}"


#: LP solves of the revised fast path at n = 16, seed 7 under the ε-bisection
#: the milestone search replaced (relative precision 1e-3, CODE_EPOCH 2005.6).
_BISECTION_LP_SOLVES = 402


@pytest.mark.bench
def test_milestone_search_solves_a_fifth_of_the_bisection_lps(monkeypatch):
    """The revised fast path solves <= 1/5 of the bisection's LPs, and plans no worse.

    The count is every LP of the simulation: the verdict probes the
    ``ReplanProbe`` solves plus the HiGHS range LPs (with their presolve-off
    retries) that ``repro.core.maxflow`` solves to plan each event.
    """
    from repro.analysis import fairness_report
    from repro.core import maxflow

    range_solves = []
    solve = maxflow._scipy_solve_form

    def counted(*args, **kwargs):
        range_solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(maxflow, "_scipy_solve_form", counted)
    instance = _staggered_instance(16)
    fast = OnlineOfflineAdaptationScheduler(backend="revised")
    fast_result = simulate(instance, fast)
    probe_solves = fast.replan_probe.lp_solves
    range_lps = len(range_solves)
    solves = probe_solves + range_lps
    reference_result = simulate(instance, OnlineOfflineAdaptationScheduler(parametric=False))

    reference_stretch = fairness_report(reference_result.schedule).max_stretch
    fast_stretch = fairness_report(fast_result.schedule).max_stretch
    print(
        f"[replanning] n=16: {fast.replanning_count} events, {probe_solves} verdict "
        f"probes + {range_lps} range LPs = {solves} LP solves "
        f"(bisection: {_BISECTION_LP_SOLVES}); max stretch {reference_stretch:.6f} "
        f"(from-scratch scipy) vs {fast_stretch:.6f} (revised)"
    )
    assert solves * 5 <= _BISECTION_LP_SOLVES, solves
    # Never meaningfully worse than the from-scratch reference.
    assert fast_stretch <= reference_stretch * 1.02, (
        f"fast-path max stretch {fast_stretch} vs reference {reference_stretch}"
    )


@pytest.mark.bench
def test_rank_keyed_probe_lifts_lp_targets_hit_rate(monkeypatch):
    """PR 5 satellite: rank-pattern keying for ``deadline-driven:lp_targets``.

    The LP-targeted deadline policy asks roughly one feasibility question per
    replanning event, each over a different active-set size and deadline
    order, so the raw-structure cache rarely hits within or across runs.
    Canonicalising each (equal-release) sub-instance by deadline rank
    collapses those structures: the hit rate must reach the
    ``online-offline`` level (~0.8 on this sweep) and the executed schedules
    must stay byte-identical to the raw-structure path.
    """
    from repro.core.replanning import ReplanProbe
    from repro.heuristics import DeadlineDrivenScheduler, deadline_driven
    from repro.workload import random_unrelated_instance as _unrelated

    instances = [
        _unrelated(14, 4, forbidden_probability=0.0, seed=seed) for seed in range(8)
    ]
    schedulers = {}
    results = {}
    for label, rank_keyed in (("raw", False), ("rank-keyed", True)):
        with monkeypatch.context() as patch:
            if not rank_keyed:
                # The raw-structure reference: the policy's probe without
                # rank keying.
                patch.setattr(
                    deadline_driven,
                    "ReplanProbe",
                    lambda **kwargs: ReplanProbe(**{**kwargs, "rank_keyed": False}),
                )
            scheduler = DeadlineDrivenScheduler(lp_targets=True)
        results[label] = [simulate(instance, scheduler) for instance in instances]
        schedulers[label] = scheduler

    for raw_result, ranked_result in zip(results["raw"], results["rank-keyed"]):
        assert ranked_result.schedule.pieces == raw_result.schedule.pieces
        assert ranked_result.completion_times == raw_result.completion_times

    raw_probe = schedulers["raw"].replan_probe
    ranked_probe = schedulers["rank-keyed"].replan_probe
    raw_rate = raw_probe.cache_hits / raw_probe.probes
    ranked_rate = ranked_probe.cache_hits / ranked_probe.probes
    print(
        f"[replanning] lp_targets hit rate: raw {raw_rate:.2f} "
        f"({raw_probe.model_constructions} builds) -> rank-keyed {ranked_rate:.2f} "
        f"({ranked_probe.model_constructions} builds, "
        f"{ranked_probe.rank_canonicalisations} canonicalisations)"
    )
    # The improvement the ROADMAP asked for: at least twice the raw hit
    # rate, and at the online-offline level in absolute terms.
    assert ranked_rate >= 2 * raw_rate
    assert ranked_rate >= 0.75
    assert ranked_probe.model_constructions < raw_probe.model_constructions


@pytest.mark.bench
def test_event_scoped_refresh_skips_coefficient_rewrites():
    """PR 5 satellite: within one replanning event coefficients are constant.

    Every bisection step of ``deadline-driven:lp_targets=true`` would rewrite
    the template's coefficient arrays; the event-scoped cache reuses them, so
    a step that meets a (structure, permutation) pair its event already
    refreshed rewrites nothing — while the answers stay byte-identical
    (asserted against the raw-structure path by the rank-keying bench above).
    """
    from repro.heuristics import make_scheduler

    scheduler = make_scheduler("deadline-driven:lp_targets=true")
    for seed in range(4):
        simulate(_staggered_instance(12, seed=seed), scheduler)
    probe = scheduler.replan_probe
    assert probe.event_refresh_reuses > 0
    assert probe.coefficient_refreshes + probe.event_refresh_reuses == probe.lp_solves
    print(
        f"[replanning] event-scoped refresh: {probe.lp_solves} solves -> "
        f"{probe.coefficient_refreshes} coefficient rewrites "
        f"({probe.event_refresh_reuses} reused)"
    )
