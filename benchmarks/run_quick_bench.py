#!/usr/bin/env python
"""Quick perf smoke for the LP, milestone-search, campaign and store hot paths.

Runs miniature versions of ``bench_lp_backends`` and
``bench_milestone_search`` — plus an **LP warm-start row** (warm/cold solve
counts, warm-hit rate, pivot totals and per-phase timings of the revised
fast path under the replanning load, diffed against the previous
invocation's row) — and writes the measurements to ``BENCH_lp.json``,
plus a campaign-throughput trajectory (scenarios/sec, peak in-flight items,
probe constructions, off-line solves, engine timings) to
``BENCH_campaign.json``, so successive PRs accumulate perf trajectories to
compare against::

    python benchmarks/run_quick_bench.py [--output BENCH_lp.json]
                                         [--campaign-output BENCH_campaign.json]
                                         [--store BENCH_store.sqlite]

The record also carries a **streaming row** (arrivals/sec of the
rolling-horizon simulator through both the legacy rebuild-per-arrival
engine and the zero-copy view path, their in-process speed ratio, peak
active jobs, saturation flag), diffed against the previous invocation's
row the way the campaign rows are diffed through the store, an **obs
row** (metrics-off vs metrics-on arrivals/sec, the on/off ratio, trace
determinism — regression-asserted against the previous invocation the
same way), a **journal row** (flight-recorder write rate in events/sec
plus the journal-on/off campaign throughput ratio, asserted ≥ 97 % and
diffed against the previous invocation), and a **lint row** (repro.lint finding counts and
analyzer wall-clock over src/repro): any non-baselined finding fails the
bench run — the analyzer's zero-regressions assertion.

The campaign rows are also written into a persistent experiment store
(``BENCH_store.sqlite``, one run per invocation): the record includes the
store's bulk-insert rate, the resume skip-rate of an immediate warm re-run,
and — from the second invocation on — a cross-run diff against the previous
bench run's headline metrics.

The workloads are deliberately small (a few seconds end to end); use the
pytest benches for paper-scale numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.analysis import run_scenario_campaign  # noqa: E402  (path setup above)
from repro.analysis.regression import MetricDelta  # noqa: E402
from repro.store import ExperimentStore, diff_runs  # noqa: E402
from repro.core import (  # noqa: E402
    FeasibilityProbe,
    minimize_max_weighted_flow,
    minimize_max_weighted_flow_bisection,
)
from repro.core.formulations import build_allocation_model  # noqa: E402
from repro.heuristics import OnlineOfflineAdaptationScheduler, make_scheduler  # noqa: E402
from repro.lp.scipy_backend import solve_matrix_form  # noqa: E402
from repro.simulation import simulate  # noqa: E402
from repro.workload import random_unrelated_instance  # noqa: E402

from bench_lp_backends import _largest_bench_inputs  # noqa: E402  (same directory)


def bench_lowering(num_jobs: int = 60, num_machines: int = 6, repeats: int = 5) -> dict:
    """Dense vs sparse lowering of a mid-search System (3) LP.

    The sparse time builds the CSR form; the dense time builds it and
    densifies it (``MatrixForm.densified``).
    """
    inputs = _largest_bench_inputs(num_jobs, num_machines)

    timings = {}
    for label, sparse in (("dense", False), ("sparse", True)):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            form = build_allocation_model(**inputs).form
            if not sparse:
                form.densified()
            best = min(best, time.perf_counter() - start)
        timings[label] = best

    form = build_allocation_model(**inputs).form
    solve_start = time.perf_counter()
    solution = solve_matrix_form(form)
    solve_seconds = time.perf_counter() - solve_start

    return {
        "num_jobs": num_jobs,
        "num_machines": num_machines,
        "lp_variables": form.num_variables,
        "lp_constraints": form.num_constraints,
        "dense_lowering_seconds": timings["dense"],
        "sparse_lowering_seconds": timings["sparse"],
        "sparse_speedup": timings["dense"] / max(timings["sparse"], 1e-12),
        "highs_solve_seconds": solve_seconds,
        "objective": solution.objective_value,
    }


def bench_lp_warm_start(num_jobs: int = 16, num_machines: int = 3) -> dict:
    """LP fast-path row: warm-start economy of the revised backend.

    One fast-configuration replanning simulation (parametric probe + the
    in-house revised simplex with kept-alive programs) under a metrics
    recorder.  The row carries the solve counts the obs subsystem exposes
    — ``lp.solves`` / ``lp.cold_solves`` / ``lp.warm_start_hits`` — plus
    the total pivot count and the per-phase solver wall-clock, so the
    PR-over-PR trajectory tracks the warm-hit rate and pivot economy, not
    just end-to-end seconds.  Diffed against the previous invocation's row
    in ``main`` the way the stream and obs rows are.
    """
    from repro.obs import collecting

    instance = random_unrelated_instance(
        num_jobs, num_machines, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=7
    )
    scheduler = OnlineOfflineAdaptationScheduler(parametric=True, backend="revised")
    start = time.perf_counter()
    with collecting() as recorder:
        simulate(instance, scheduler)
    elapsed = time.perf_counter() - start
    snapshot = recorder.snapshot()
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    warm = counters.get("lp.warm_start_hits", 0.0)
    cold = counters.get("lp.cold_solves", 0.0)
    # The kept-alive fast path must dominate: most probe re-solves rebind
    # the persisted program instead of rebuilding it.
    assert warm > cold > 0, (warm, cold)
    return {
        "num_jobs": num_jobs,
        "num_machines": num_machines,
        "backend": "simplex-revised",
        "lp_solves": counters.get("lp.solves", 0.0),
        "cold_solves": cold,
        "warm_start_hits": warm,
        "warm_hit_rate": warm / (warm + cold),
        "pivots": histograms.get("lp.iterations", {}).get("total", 0.0),
        "phase_seconds": {
            name.removeprefix("lp.time."): summary["total"]
            for name, summary in histograms.items()
            if name.startswith("lp.time.")
        },
        "simulation_seconds": elapsed,
    }


def bench_milestone_search(num_jobs: int = 30, num_machines: int = 4, seeds=(0, 1)) -> dict:
    """Probe-reuse metrics and wall time of the milestone search."""
    per_seed = []
    for seed in seeds:
        instance = random_unrelated_instance(num_jobs, num_machines, seed=seed)
        probe = FeasibilityProbe(instance)
        start = time.perf_counter()
        result = minimize_max_weighted_flow(instance, probe=probe)
        exact_seconds = time.perf_counter() - start
        start = time.perf_counter()
        bisect_value, bisect_checks = minimize_max_weighted_flow_bisection(
            instance, precision=1e-5, probe=probe
        )
        bisect_seconds = time.perf_counter() - start
        per_seed.append(
            {
                "seed": seed,
                "milestones": len(result.milestones),
                "objective": result.objective,
                "feasibility_checks": result.feasibility_checks,
                "lp_solves": result.lp_solves,
                "model_constructions": result.model_constructions,
                "exact_seconds": exact_seconds,
                "bisection_value": bisect_value,
                "bisection_checks": bisect_checks,
                "bisection_extra_lp_solves": probe.lp_solves - result.lp_solves,
                "bisection_seconds": bisect_seconds,
            }
        )
    return {"num_jobs": num_jobs, "num_machines": num_machines, "runs": per_seed}


def bench_engine(num_jobs: int = 150, num_machines: int = 6, repeats: int = 5) -> dict:
    """Single-simulation timing of ``simulate`` (best of ``repeats``)."""
    instance = random_unrelated_instance(num_jobs, num_machines, seed=3)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        simulate(instance, make_scheduler("fifo"))
        best = min(best, time.perf_counter() - start)
    return {
        "num_jobs": num_jobs,
        "num_machines": num_machines,
        "policy": "fifo",
        "single_simulation_seconds": best,
    }


def bench_replanning(num_jobs: int = 16, num_machines: int = 3) -> dict:
    """Parametric-replanning speedup of the on-line LP adaptation.

    Three configurations on one instance: the from-scratch rebuild (the
    pre-refactor reference), the probe-backed scipy path (the byte-identity
    contract), and the ISSUE 9 fast path — probe plus the in-house revised
    simplex with kept-alive, warm-started programs.  The scipy probe must
    stay byte-identical to the reference; the fast path picks different
    optimal vertices on the degenerate feasibility programs (the CODE_EPOCH
    2005.6 bump), so its recorded identity check is on the objective: the
    final max stretch must never be meaningfully worse than the reference's.
    ``replanning_speedup`` is the fast path's wall-clock gain — the number
    the ISSUE 9 acceptance tracks (1.02x before the fast path existed).
    """
    from repro.analysis import fairness_report

    instance = random_unrelated_instance(
        num_jobs, num_machines, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=7
    )
    configs = {
        "from_scratch": {"parametric": False},
        "parametric": {"parametric": True},
        "fast": {"parametric": True, "backend": "revised"},
    }
    timings = {}
    results = {}
    schedulers = {}
    for label, kwargs in configs.items():
        scheduler = OnlineOfflineAdaptationScheduler(**kwargs)
        start = time.perf_counter()
        results[label] = simulate(instance, scheduler)
        timings[label] = time.perf_counter() - start
        schedulers[label] = scheduler
    assert results["parametric"].schedule.pieces == results["from_scratch"].schedule.pieces
    probe = schedulers["parametric"].replan_probe
    assert probe.model_constructions < probe.probes
    reference_stretch = fairness_report(results["from_scratch"].schedule).max_stretch
    fast_stretch = fairness_report(results["fast"].schedule).max_stretch
    assert fast_stretch <= reference_stretch * 1.02, (
        f"fast-path max stretch {fast_stretch} vs reference {reference_stretch}"
    )
    return {
        "num_jobs": num_jobs,
        "num_machines": num_machines,
        "replanning_events": schedulers["parametric"].replanning_count,
        "feasibility_checks": probe.probes,
        "model_builds_parametric": probe.model_constructions,
        "model_builds_from_scratch": schedulers["from_scratch"].replanning_model_builds,
        "from_scratch_seconds": timings["from_scratch"],
        "parametric_seconds": timings["parametric"],
        "fast_seconds": timings["fast"],
        "probe_speedup_scipy": timings["from_scratch"] / max(timings["parametric"], 1e-12),
        "replanning_speedup": timings["from_scratch"] / max(timings["fast"], 1e-12),
        "schedules_identical": True,  # scipy probe vs reference, asserted above
        "reference_max_stretch": reference_stretch,
        "fast_max_stretch": fast_stretch,
        "objective_identity_tolerance": 0.02,
    }


def bench_stream(arrivals: int = 3000, speed_floor: float = 2.5) -> dict:
    """Streaming-runtime throughput row: arrivals/sec, peak window, saturation.

    One rolling-horizon simulation of a Poisson stream at 70% offered load,
    run through **both** engines: the frozen legacy rebuild-per-arrival
    reference and the zero-copy view path.  The asserts protect the
    subsystem's core guarantees (byte-identical results across engines,
    O(active) window, determinism, no spurious saturation, and the view
    path's in-process speedup floor) and the record feeds the PR-over-PR
    trajectory in ``BENCH_campaign.json`` — its ``arrivals_per_second`` is
    the view path's, so the ``diff_vs_previous`` ratio against the last
    committed row measures the speedup over the previous PR's engine.
    """
    from repro.analysis import analyse_stream  # noqa: E402  (late: path set in main)
    from repro.simulation import StreamingSimulator  # noqa: E402
    from repro.simulation._stream_legacy import run_rebuild  # noqa: E402
    from repro.workload import StreamSpec, open_stream  # noqa: E402

    spec = StreamSpec(
        label="quick-bench", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)
    results = {
        "rebuild": run_rebuild(
            StreamingSimulator(), open_stream(spec), make_scheduler("srpt"),
            max_arrivals=arrivals,
        ),
        "view": StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        ),
    }
    result = results["view"]
    # The legacy engine is the byte-identity reference: same events, same
    # decisions, same completion series.
    assert results["rebuild"].fingerprint() == result.fingerprint()
    report = analyse_stream(result)
    assert result.completions == arrivals
    assert not report.saturated
    # O(active) memory: the window is bounded by the live occupancy, never
    # by the arrival count.
    assert result.peak_window <= 2 * result.peak_active + 16
    twin = StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
    )
    assert twin.fingerprint() == result.fingerprint()
    speed_ratio = result.arrivals_per_second / max(
        results["rebuild"].arrivals_per_second, 1e-12
    )
    # Conservative in-process floor (the paper-scale 100k-arrival assertion
    # lives in bench_streaming.py): the view path must stay comfortably
    # ahead of the rebuild reference even on this tiny stream.  Callers at
    # toy sizes (the tier-1 smoke) pass a lower floor — startup noise
    # dominates short runs.
    assert speed_ratio >= speed_floor, (
        f"view path only {speed_ratio:.2f}x over rebuild (floor {speed_floor}x)"
    )
    return {
        "arrivals": result.arrivals,
        "policy": "srpt",
        "rho": 0.7,
        "arrivals_per_second": result.arrivals_per_second,
        "legacy_arrivals_per_second": results["rebuild"].arrivals_per_second,
        "engine_speed_ratio": speed_ratio,
        "engines_identical": True,
        "peak_active": result.peak_active,
        "peak_window": result.peak_window,
        "compactions": result.compactions,
        "saturated": report.saturated,
        "mean_stretch": report.mean_stretch.mean,
        "mean_stretch_half_width": report.mean_stretch.half_width,
        "utilisation": report.utilisation,
        "elapsed_seconds": result.elapsed_seconds,
    }


def bench_obs(arrivals: int = 3000) -> dict:
    """Observability row: metrics-off vs metrics-on throughput + determinism.

    Interleaves three metrics-off runs with three metrics-on runs
    (``collecting()`` scope) of the same stream and keeps each arm's best.
    The asserts protect the layer's contracts at this scale: identical
    fingerprints and byte-identical traces with obs on or off, and the
    expected aggregate counters in the snapshot.  The recorded
    ``enabled_over_disabled_ratio`` feeds the PR-over-PR trajectory; the
    tight ≤ 3 % disabled-mode bound lives in ``bench_obs_overhead.py``
    (it needs paired-median methodology this quick smoke doesn't carry).
    """
    from repro.obs import collecting, trace_stream_result  # noqa: E402
    from repro.simulation import StreamingSimulator  # noqa: E402
    from repro.workload import StreamSpec, open_stream  # noqa: E402

    spec = StreamSpec(
        label="quick-bench-obs", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)

    off_best = on_best = 0.0
    result_off = result_on = None
    recorder = None
    for _ in range(3):
        simulator = StreamingSimulator()
        scheduler = make_scheduler("srpt")
        stream = open_stream(spec)
        start = time.perf_counter()
        result_off = simulator.run(stream, scheduler, max_arrivals=arrivals)
        off_best = max(off_best, arrivals / (time.perf_counter() - start))

        simulator = StreamingSimulator()
        scheduler = make_scheduler("srpt")
        stream = open_stream(spec)
        start = time.perf_counter()
        with collecting() as recorder:
            result_on = simulator.run(stream, scheduler, max_arrivals=arrivals)
        on_best = max(on_best, arrivals / (time.perf_counter() - start))

    assert result_on.fingerprint() == result_off.fingerprint()
    trace = trace_stream_result(result_off).to_jsonl()
    assert trace == trace_stream_result(result_on).to_jsonl()
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["stream.arrivals"] == float(arrivals)
    assert snapshot["counters"]["stream.runs"] == 1.0
    ratio = on_best / max(off_best, 1e-12)
    # Enabled-mode metrics may cost something, but never half the engine.
    assert ratio >= 0.5, f"metrics-on throughput only {ratio:.2f}x of metrics-off"
    return {
        "arrivals": arrivals,
        "policy": "srpt",
        "rho": 0.7,
        "disabled_arrivals_per_second": off_best,
        "enabled_arrivals_per_second": on_best,
        "enabled_over_disabled_ratio": ratio,
        "fingerprints_identical": True,
        "traces_identical": True,
        "trace_events": trace.count("\n"),
        "counters": snapshot["counters"],
    }


def bench_journal(
    seeds_per_scenario: int = 3, repeats: int = 5, ratio_floor: float = 0.97
) -> dict:
    """Flight-recorder row: journal write rate and journal-on/off throughput.

    Two measurements.  First a micro-write rate: raw ``RunJournal`` appends
    (one flushed JSON line per event), recorded as events/sec.  Then the
    acceptance ratio: the same campaign run with and without a journal
    attached, interleaved best-of-``repeats`` per arm — the journal-enabled
    run must keep at least ``ratio_floor`` (97 %) of the disabled run's
    throughput, and its records must be byte-identical to the disabled
    run's (the journal is a reporting channel, never an input).  The last
    journal written is re-read to pin the crash-tolerance contract at this
    scale: every line parses (``truncated == 0``) and the folded fleet
    status accounts for every record.  Callers at toy sizes (the tier-1
    smoke) pass a lower floor — timer noise dominates short runs.
    """
    import tempfile

    from repro.obs import analyse_journal, read_journal
    from repro.obs.journal import RunJournal

    scenarios = ("unrelated-stress",)
    policies = ("mct", "srpt")

    with tempfile.TemporaryDirectory() as tmp:
        micro_events = 2000
        micro_path = os.path.join(tmp, "micro.jsonl")
        with RunJournal(micro_path) as journal:
            journal.begin_run("bench", "journal-micro")
            start = time.perf_counter()
            for index in range(micro_events):
                journal.record("worker-heartbeat", worker="p0", items=index)
            micro_seconds = time.perf_counter() - start
        events_per_second = micro_events / max(micro_seconds, 1e-12)

        # One untimed warmup so cold caches (imports, LP factorisations)
        # don't land on whichever timed arm happens to run first.
        run_scenario_campaign(
            scenarios, policies, base_seed=2005, seeds_per_scenario=1
        )

        def _interleaved_best(attempt: int):
            off_best = on_best = float("inf")
            off_records = on_records = None
            path = None
            for rep in range(repeats):
                start = time.perf_counter()
                off = run_scenario_campaign(
                    scenarios,
                    policies,
                    base_seed=2005,
                    seeds_per_scenario=seeds_per_scenario,
                )
                off_best = min(off_best, time.perf_counter() - start)
                off_records = off.records

                path = os.path.join(tmp, f"campaign-{attempt}-{rep}.jsonl")
                start = time.perf_counter()
                on = run_scenario_campaign(
                    scenarios,
                    policies,
                    base_seed=2005,
                    seeds_per_scenario=seeds_per_scenario,
                    journal=path,
                )
                on_best = min(on_best, time.perf_counter() - start)
                on_records = on.records
            return off_best, on_best, off_records, on_records, path

        # A single ~150 ms arm can lose >5 % to unrelated machine load, so
        # a below-floor ratio is re-measured (bounded retries) before it is
        # treated as a real regression — a persistent slowdown still fails.
        for attempt in range(3):
            off_best, on_best, off_records, on_records, journal_path = (
                _interleaved_best(attempt)
            )
            # Reporting channel, never an input: identical records either way.
            assert on_records == off_records
            ratio = off_best / max(on_best, 1e-12)
            if ratio >= ratio_floor:
                break
        assert ratio >= ratio_floor, (
            f"journal-enabled campaign at {ratio:.3f}x of disabled throughput "
            f"(floor {ratio_floor}x)"
        )

        view = read_journal(journal_path)
        assert view.truncated == 0
        status = analyse_journal(view.events)
        assert status.status == "completed"
        assert status.done == len(on_records)
        return {
            "scenarios": list(scenarios),
            "policies": list(policies),
            "seeds_per_scenario": seeds_per_scenario,
            "journal_events_per_second": events_per_second,
            "micro_events": micro_events,
            "disabled_seconds": off_best,
            "enabled_seconds": on_best,
            "enabled_over_disabled_ratio": ratio,
            "ratio_floor": ratio_floor,
            "records_identical": True,
            "journal_events": len(view.events),
            "journal_truncated_lines": view.truncated,
            "journal_cells": status.done,
        }


def bench_lint() -> dict:
    """Static-analyzer row: finding counts and analyzer wall-clock.

    The full ``repro.lint`` rule set runs over ``src/repro`` against the
    committed baseline.  The row records the analyzer's throughput trajectory
    next to the perf rows — and carries the **zero-regressions assertion**:
    any non-baselined finding makes the whole bench run exit non-zero, the
    same way an engine regression does.
    """
    from repro.lint import run_lint

    report = run_lint()
    return {
        "modules": report.modules_analyzed,
        "rules": len(report.rules_run),
        "new_findings": len(report.new_findings),
        "baselined_findings": len(report.baselined_findings),
        "counts_by_severity": report.counts_by_severity(),
        "elapsed_seconds": report.elapsed_seconds,
        "clean": not report.new_findings,
        "details": [finding.as_dict() for finding in report.new_findings],
    }


def bench_campaign(seeds_per_scenario: int = 4) -> dict:
    """Campaign-throughput trajectory of the streaming dispatcher.

    Sweeps three scenarios x ``seeds_per_scenario`` spawned seeds over three
    policies, sequentially and through the streamed (bounded in-flight)
    dispatcher, and records scenarios/sec, peak in-flight items, peak pending
    records and probe constructions for the trajectory file.
    """
    scenarios = ("small-cluster", "hotspot", "unrelated-stress")
    policies = ("mct", "greedy-weighted-flow", "srpt")
    runs = {}
    for label, max_workers in (("sequential", None), ("streamed", 0)):
        result = run_scenario_campaign(
            scenarios,
            policies,
            base_seed=2005,
            seeds_per_scenario=seeds_per_scenario,
            max_workers=max_workers,
            chunk_size=1,
            max_inflight=16,
        )
        runs[label] = result.stats.as_dict()
    workloads = runs["sequential"]["workloads"]
    naive_constructions = workloads * (len(policies) + 1)
    assert runs["sequential"]["probe_constructions"] < naive_constructions
    # One LP search per workload at any worker count (pinned-optimum shipping).
    assert runs["sequential"]["offline_solves"] == workloads
    assert runs["streamed"]["offline_solves"] == workloads
    return {
        "scenarios": list(scenarios),
        "policies": list(policies),
        "seeds_per_scenario": seeds_per_scenario,
        "naive_probe_constructions": naive_constructions,
        "runs": runs,
    }


def bench_store(store_path: str, seeds_per_scenario: int = 2) -> dict:
    """Write the bench campaign rows into the persistent store.

    Each invocation registers one run in ``store_path`` (cold sweep), then
    re-runs it with ``resume=True`` to measure the skip rate, and diffs the
    cold run's headline metrics against the previous invocation's — the
    store's own cross-run regression report, accumulated PR over PR.
    """
    scenarios = ("small-cluster", "hotspot", "unrelated-stress")
    policies = ("mct", "greedy-weighted-flow", "srpt")
    with ExperimentStore(store_path) as store:
        previous = [run for run in store.runs() if run.label == "quick-bench" and run.completed]
        start = time.perf_counter()
        cold = run_scenario_campaign(
            scenarios,
            policies,
            base_seed=2005,
            seeds_per_scenario=seeds_per_scenario,
            store=store,
            run_label="quick-bench",
        )
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_scenario_campaign(
            scenarios,
            policies,
            base_seed=2005,
            seeds_per_scenario=seeds_per_scenario,
            store=store,
            resume=True,
            run_label="quick-bench-resume",
        )
        warm_seconds = time.perf_counter() - start
        assert warm.stats.resume_skip_rate == 1.0
        assert warm.records == cold.records

        record = {
            "path": os.path.relpath(store_path),
            "run_id": cold.stats.store_run_id,
            "records": len(cold.records),
            "new_cells": cold.stats.store_new_records,
            "cold_seconds": cold_seconds,
            "resume_seconds": warm_seconds,
            "resume_skip_rate": warm.stats.resume_skip_rate,
            "resume_speedup": cold_seconds / max(warm_seconds, 1e-12),
        }
        if previous:
            diff = diff_runs(store, previous[-1].run_id, cold.stats.store_run_id)
            record["diff_vs_previous"] = {
                "baseline_run": previous[-1].run_id,
                "regressions": [
                    _delta_dict(delta) for delta in diff.regressions()
                ],
                "clean": diff.is_clean(),
            }
        return record


def _delta_dict(delta: MetricDelta) -> dict:
    return {
        "policy": delta.policy,
        "metric": delta.metric,
        "baseline": delta.baseline,
        "current": delta.current,
        "relative_delta": delta.relative_delta,
    }


def main(argv=None) -> int:
    repo_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=os.path.join(repo_root, "BENCH_lp.json"),
        help="where to write the LP JSON record (default: repo-root BENCH_lp.json)",
    )
    parser.add_argument(
        "--campaign-output",
        default=os.path.join(repo_root, "BENCH_campaign.json"),
        help="where to write the campaign trajectory "
        "(default: repo-root BENCH_campaign.json)",
    )
    parser.add_argument(
        "--store",
        default=os.path.join(repo_root, "BENCH_store.sqlite"),
        help="experiment store accumulating one bench run per invocation "
        "(default: repo-root BENCH_store.sqlite)",
    )
    args = parser.parse_args(argv)

    # The LP warm-start row is diffed against the previous invocation's:
    # read the old record before overwriting it.
    output = os.path.abspath(args.output)
    previous_lp = None
    if os.path.exists(output):
        try:
            with open(output) as handle:
                previous_lp = json.load(handle).get("lp")
        except (json.JSONDecodeError, OSError):
            previous_lp = None

    start = time.perf_counter()
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "lowering": bench_lowering(),
        "milestone_search": bench_milestone_search(),
        "lp": bench_lp_warm_start(),
    }
    record["total_seconds"] = time.perf_counter() - start

    lp_row = record["lp"]
    if previous_lp and previous_lp.get("simulation_seconds"):
        lp_row["diff_vs_previous"] = {
            "warm_hit_rate": previous_lp.get("warm_hit_rate"),
            "warm_hit_rate_delta": lp_row["warm_hit_rate"]
            - previous_lp.get("warm_hit_rate", lp_row["warm_hit_rate"]),
            "speed_ratio": previous_lp["simulation_seconds"]
            / max(lp_row["simulation_seconds"], 1e-12),
        }
        # Same policy as the stream/obs rows: wobble is tolerated, a 2x
        # slowdown of the warm-started simulation vs the previously
        # committed row is a fast-path regression.
        assert lp_row["diff_vs_previous"]["speed_ratio"] >= 0.5, (
            "LP warm-start simulation regressed more than 2x vs the previous "
            f"BENCH_lp.json row: {lp_row['diff_vs_previous']}"
        )

    # The streaming row is diffed against the previous invocation's, like the
    # campaign rows are diffed through the store: read before overwriting.
    campaign_output = os.path.abspath(args.campaign_output)
    previous_stream = None
    previous_obs = None
    previous_journal = None
    if os.path.exists(campaign_output):
        try:
            with open(campaign_output) as handle:
                previous = json.load(handle)
            previous_stream = previous.get("stream")
            previous_obs = previous.get("obs")
            previous_journal = previous.get("journal")
        except (json.JSONDecodeError, OSError):
            previous_stream = None
            previous_obs = None
            previous_journal = None

    campaign_start = time.perf_counter()
    campaign_record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "engine": bench_engine(),
        "replanning": bench_replanning(),
        "campaign": bench_campaign(),
        "stream": bench_stream(),
        "obs": bench_obs(),
        "journal": bench_journal(),
        "store": bench_store(os.path.abspath(args.store)),
        "lint": bench_lint(),
    }
    campaign_record["total_seconds"] = time.perf_counter() - campaign_start

    stream_row = campaign_record["stream"]
    if previous_stream and previous_stream.get("arrivals_per_second"):
        stream_row["diff_vs_previous"] = {
            "arrivals_per_second": previous_stream["arrivals_per_second"],
            "speed_ratio": stream_row["arrivals_per_second"]
            / previous_stream["arrivals_per_second"],
            "mean_stretch_delta": stream_row["mean_stretch"]
            - previous_stream.get("mean_stretch", stream_row["mean_stretch"]),
        }
        # Asserted, not just reported: the streaming trajectory may wobble
        # with machine load but a PR must never halve the throughput of the
        # previously committed row.
        assert stream_row["diff_vs_previous"]["speed_ratio"] >= 0.5, (
            "streaming throughput regressed more than 2x vs the previous "
            f"BENCH_campaign.json row: {stream_row['diff_vs_previous']}"
        )

    obs_row = campaign_record["obs"]
    if previous_obs and previous_obs.get("disabled_arrivals_per_second"):
        obs_row["diff_vs_previous"] = {
            "disabled_arrivals_per_second": previous_obs[
                "disabled_arrivals_per_second"
            ],
            "speed_ratio": obs_row["disabled_arrivals_per_second"]
            / previous_obs["disabled_arrivals_per_second"],
            "ratio_delta": obs_row["enabled_over_disabled_ratio"]
            - previous_obs.get(
                "enabled_over_disabled_ratio",
                obs_row["enabled_over_disabled_ratio"],
            ),
        }
        # Same policy as the stream row: machine wobble is tolerated, a
        # 2x disabled-mode throughput regression is not — that would mean
        # the "zero overhead when off" contract broke.
        assert obs_row["diff_vs_previous"]["speed_ratio"] >= 0.5, (
            "metrics-off streaming throughput regressed more than 2x vs the "
            f"previous BENCH_campaign.json obs row: {obs_row['diff_vs_previous']}"
        )

    journal_row = campaign_record["journal"]
    if previous_journal and previous_journal.get("journal_events_per_second"):
        journal_row["diff_vs_previous"] = {
            "journal_events_per_second": previous_journal[
                "journal_events_per_second"
            ],
            "write_speed_ratio": journal_row["journal_events_per_second"]
            / previous_journal["journal_events_per_second"],
            "ratio_delta": journal_row["enabled_over_disabled_ratio"]
            - previous_journal.get(
                "enabled_over_disabled_ratio",
                journal_row["enabled_over_disabled_ratio"],
            ),
        }
        # Same policy as the stream/obs rows: a 2x regression of the raw
        # journal write rate vs the previously committed row means the
        # flush-per-event path grew a real bottleneck.
        assert journal_row["diff_vs_previous"]["write_speed_ratio"] >= 0.5, (
            "journal write rate regressed more than 2x vs the previous "
            f"BENCH_campaign.json journal row: {journal_row['diff_vs_previous']}"
        )

    with open(campaign_output, "w") as handle:
        json.dump(campaign_record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    with open(output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lowering = record["lowering"]
    print(
        f"lowering: dense {lowering['dense_lowering_seconds'] * 1e3:.2f}ms vs "
        f"sparse {lowering['sparse_lowering_seconds'] * 1e3:.2f}ms "
        f"({lowering['sparse_speedup']:.1f}x) on "
        f"{lowering['lp_variables']} vars / {lowering['lp_constraints']} cons"
    )
    for run in record["milestone_search"]["runs"]:
        print(
            f"milestone search seed {run['seed']}: {run['feasibility_checks']} probes, "
            f"{run['model_constructions']} models built, {run['lp_solves']} LP solves, "
            f"{run['exact_seconds']:.2f}s; bisection reused the probe with "
            f"{run['bisection_extra_lp_solves']} extra solves"
        )
    print(
        f"lp fast path: {lp_row['warm_start_hits']:.0f} warm / "
        f"{lp_row['cold_solves']:.0f} cold revised solves "
        f"({lp_row['warm_hit_rate']:.0%} warm-hit rate, "
        f"{lp_row['pivots']:.0f} pivots) in {lp_row['simulation_seconds']:.2f}s"
    )
    if "diff_vs_previous" in lp_row:
        diff = lp_row["diff_vs_previous"]
        print(
            f"  vs previous invocation: {diff['speed_ratio']:.2f}x, "
            f"warm-hit rate delta {diff['warm_hit_rate_delta']:+.3f}"
        )
    engine = campaign_record["engine"]
    campaign = campaign_record["campaign"]
    print(
        f"engine: {engine['single_simulation_seconds'] * 1e3:.2f}ms per "
        f"{engine['num_jobs']}-job simulation"
    )
    replanning = campaign_record["replanning"]
    print(
        f"replanning: {replanning['feasibility_checks']} checks -> "
        f"{replanning['model_builds_parametric']} models built "
        f"(from-scratch {replanning['model_builds_from_scratch']}), "
        f"fast path {replanning['replanning_speedup']:.2f}x "
        f"(scipy probe {replanning['probe_speedup_scipy']:.2f}x, byte-identical; "
        f"fast max stretch {replanning['fast_max_stretch']:.4f} vs "
        f"reference {replanning['reference_max_stretch']:.4f})"
    )
    for label, run in campaign["runs"].items():
        print(
            f"campaign ({label}): {run['scenarios_per_second']:.1f} scenarios/s, "
            f"{run['probe_constructions']} probe constructions "
            f"(naive {campaign['naive_probe_constructions']}), "
            f"{run['offline_solves']} offline solves, "
            f"peak in-flight {run['peak_in_flight']}"
        )
    print(
        f"stream: {stream_row['arrivals_per_second']:.0f} arrivals/s over "
        f"{stream_row['arrivals']} arrivals "
        f"(legacy rebuild {stream_row['legacy_arrivals_per_second']:.0f}/s, "
        f"{stream_row['engine_speed_ratio']:.2f}x in-process; "
        f"peak active {stream_row['peak_active']}, "
        f"window {stream_row['peak_window']}, "
        f"{'SATURATED' if stream_row['saturated'] else 'steady'}, "
        f"mean stretch {stream_row['mean_stretch']:.3f})"
    )
    if "diff_vs_previous" in stream_row:
        diff = stream_row["diff_vs_previous"]
        print(
            f"  vs previous invocation: {diff['speed_ratio']:.2f}x throughput, "
            f"stretch delta {diff['mean_stretch_delta']:+.4f}"
        )
    print(
        f"obs: metrics off {obs_row['disabled_arrivals_per_second']:.0f} "
        f"arrivals/s, on {obs_row['enabled_arrivals_per_second']:.0f} arrivals/s "
        f"({obs_row['enabled_over_disabled_ratio']:.2f}x), "
        f"{obs_row['trace_events']} trace events, fingerprints and traces "
        f"identical"
    )
    if "diff_vs_previous" in obs_row:
        diff = obs_row["diff_vs_previous"]
        print(
            f"  vs previous invocation: {diff['speed_ratio']:.2f}x metrics-off "
            f"throughput, on/off ratio delta {diff['ratio_delta']:+.3f}"
        )
    journal_row = campaign_record["journal"]
    print(
        f"journal: {journal_row['journal_events_per_second']:.0f} events/s raw "
        f"writes; campaign with journal at "
        f"{journal_row['enabled_over_disabled_ratio']:.3f}x of disabled "
        f"(floor {journal_row['ratio_floor']}x), "
        f"{journal_row['journal_events']} events / "
        f"{journal_row['journal_cells']} cells, "
        f"{journal_row['journal_truncated_lines']} torn lines, "
        f"records identical"
    )
    if "diff_vs_previous" in journal_row:
        diff = journal_row["diff_vs_previous"]
        print(
            f"  vs previous invocation: {diff['write_speed_ratio']:.2f}x write "
            f"rate, on/off ratio delta {diff['ratio_delta']:+.3f}"
        )
    store_record = campaign_record["store"]
    print(
        f"store ({store_record['path']}): run #{store_record['run_id']}, "
        f"{store_record['new_cells']} new cells, resume skip rate "
        f"{store_record['resume_skip_rate']:.0%} "
        f"({store_record['resume_speedup']:.0f}x faster than cold)"
    )
    if "diff_vs_previous" in store_record:
        diff = store_record["diff_vs_previous"]
        verdict = "clean" if diff["clean"] else f"{len(diff['regressions'])} regression(s)"
        print(f"  vs run #{diff['baseline_run']}: {verdict}")
    lint_row = campaign_record["lint"]
    print(
        f"lint: {lint_row['new_findings']} finding(s) "
        f"({lint_row['baselined_findings']} baselined) over "
        f"{lint_row['modules']} modules / {lint_row['rules']} rules in "
        f"{lint_row['elapsed_seconds']:.2f}s"
    )
    print(f"wrote {output} ({record['total_seconds']:.1f}s total)")
    print(f"wrote {campaign_output} ({campaign_record['total_seconds']:.1f}s total)")
    if not lint_row["clean"]:
        print(
            "lint REGRESSION: non-baselined findings present — "
            "run 'repro-sched lint' for details",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
