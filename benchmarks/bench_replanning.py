"""Acceptance bench for the parametric replanning runtime (PR 4 tentpole).

Protects the three headline properties of the probe-backed on-line policies:

1. **Byte-identical schedules** — the ``online-offline`` policy backed by the
   shared :class:`~repro.core.replanning.ReplanProbe` (``parametric=True``,
   the default) executes exactly the same schedule, event trace and
   completion times as the pre-refactor from-scratch rebuild
   (``parametric=False``).
2. **Model-build economy** — the from-scratch path builds one feasibility LP
   per check, O(events × bisection steps) per simulation; the probe path
   builds one per *distinct active-set structure*.  Per simulation that is a
   ≥ 3× reduction, and as events accumulate across runs (the campaign case:
   one scheduler, many seeds) the cumulative checks-per-build ratio *grows*
   — builds are sublinear in events while from-scratch builds stay linear,
   i.e. the build count drops superlinearly with the event count.
3. **No slower** — the probe-backed simulation must not lose wall-clock time
   to its bookkeeping (it should win: the symbolic build and lowering it
   skips dominate small LP solves).
4. **The LP fast path** (PR 9) — the ``backend="revised"`` configuration
   (kept-alive programs, warm-started dual re-solves) must be ≥ 2× the
   from-scratch reference end to end, at an objective-tolerance identity
   (byte-identity is the scipy path's contract; see CODE_EPOCH 2005.6).

Marked ``bench`` (hence tier-2): run with ``-m bench``/``-m tier2`` or by
dropping the tier-1 filter.
"""

from __future__ import annotations

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


@pytest.mark.bench
def test_parametric_replanning_is_byte_identical_with_fewer_builds():
    for num_jobs in (8, 16, 24):
        scratch_result, scratch, scratch_seconds = _run(num_jobs, parametric=False)
        probe_result, probed, probe_seconds = _run(num_jobs, parametric=True)

        # 1. Byte-identical output.
        assert probe_result.schedule.pieces == scratch_result.schedule.pieces
        assert probe_result.events == scratch_result.events
        assert probe_result.completion_times == scratch_result.completion_times
        assert probe_result.num_preemptions == scratch_result.num_preemptions

        # 2. Build economy: one build per feasibility check from scratch, one
        # per distinct structure through the probe — at least 3x fewer.
        checks = probed.replanning_feasibility_checks
        builds = probed.replanning_model_builds
        assert scratch.replanning_model_builds == scratch.replanning_feasibility_checks
        assert checks == scratch.replanning_feasibility_checks
        assert probed.replanning_count == scratch.replanning_count
        assert builds * 3 <= checks, (num_jobs, builds, checks)

        print(
            f"[replanning] n={num_jobs}: events={probed.replanning_count} "
            f"checks={checks} builds={builds} "
            f"(from-scratch {scratch.replanning_model_builds}) "
            f"time {scratch_seconds:.2f}s -> {probe_seconds:.2f}s "
            f"({scratch_seconds / max(probe_seconds, 1e-9):.1f}x)"
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


@pytest.mark.bench
def test_warm_revised_probes_reach_2x_replanning_speedup(bench_scale):
    """ISSUE 9 acceptance: the LP fast path is >= 2x the from-scratch reference.

    The fast configuration — parametric probe, in-house revised simplex with
    kept-alive programs and warm-started dual re-solves — against the
    pre-refactor reference (from-scratch scipy rebuild per feasibility
    check).  The revised backend picks different optimal vertices on these
    massively degenerate feasibility programs (the CODE_EPOCH 2005.6 bump),
    so schedules are *not* byte-identical; the recorded identity check is on
    the objective: with ``relative_precision=1e-3`` bisections compounding
    over ~50 replanning events, the fast path's final max stretch must not be
    worse than the reference's by more than 2% (it is frequently better —
    degenerate vertex choices cascade into different, equally valid
    trajectories).
    """
    from repro.analysis import fairness_report

    num_jobs = 16 if bench_scale == "small" else 32

    def run_config(parametric: bool, backend: str):
        scheduler = OnlineOfflineAdaptationScheduler(parametric=parametric, backend=backend)
        instance = _staggered_instance(num_jobs)
        start = time.perf_counter()
        result = simulate(instance, scheduler)
        return result, time.perf_counter() - start

    run_config(False, "scipy")  # warm both paths (imports, scipy setup)
    run_config(True, "revised")
    scratch_best = float("inf")
    fast_best = float("inf")
    scratch_result = fast_result = None
    for _ in range(3):
        result, elapsed = run_config(False, "scipy")
        if elapsed < scratch_best:
            scratch_best, scratch_result = elapsed, result
        result, elapsed = run_config(True, "revised")
        if elapsed < fast_best:
            fast_best, fast_result = elapsed, result

    speedup = scratch_best / max(fast_best, 1e-9)
    reference_stretch = fairness_report(scratch_result.schedule).max_stretch
    fast_stretch = fairness_report(fast_result.schedule).max_stretch
    print(
        f"[replanning] n={num_jobs}: from-scratch scipy {scratch_best:.3f}s, "
        f"warm revised {fast_best:.3f}s ({speedup:.2f}x); max stretch "
        f"{reference_stretch:.6f} -> {fast_stretch:.6f} "
        f"({(fast_stretch - reference_stretch) / reference_stretch:+.3%})"
    )
    assert speedup >= 2.0, (
        f"warm revised fast path expected >= 2x the from-scratch reference, "
        f"got {speedup:.2f}x"
    )
    # Objective-tolerance identity (the epoch-bumped replacement for byte
    # identity): never meaningfully worse than the reference.
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

    Every bisection step of ``online-offline`` used to rewrite the template's
    coefficient arrays; the event-scoped cache reuses them, so constraint
    rewrites are one per (event, structure) instead of one per check — while
    the answers stay byte-identical (asserted against the from-scratch path
    by the identity bench above).
    """
    scheduler = OnlineOfflineAdaptationScheduler()
    for seed in range(4):
        simulate(_staggered_instance(12, seed=seed), scheduler)
    probe = scheduler.replan_probe
    assert probe.event_refresh_reuses > 0
    assert probe.coefficient_refreshes + probe.event_refresh_reuses == probe.lp_solves
    # The economy: most checks in a bisection share the event's matrices.
    assert probe.event_refresh_reuses >= probe.coefficient_refreshes
    print(
        f"[replanning] event-scoped refresh: {probe.lp_solves} solves -> "
        f"{probe.coefficient_refreshes} coefficient rewrites "
        f"({probe.event_refresh_reuses} reused)"
    )
