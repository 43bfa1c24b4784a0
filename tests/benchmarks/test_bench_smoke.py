"""Tiny-scale smoke twins of the bench assertion paths (``bench_smoke`` tier).

The acceptance benches under ``benchmarks/`` are tier-2: they only run when
selected explicitly (``-m bench``), so a refactor that breaks a bench
*assertion* — not just its numbers — used to surface only at the PR gate.
Each test here exercises one bench's assertion path on toy sizes, cheap
enough for tier-1: engine byte-identity, replanning probe economy, streamed
vs sequential campaign identity, store resume skip rate, and the streaming
runtime's O(active) window bound.

These are smoke tests, not benches: they assert *correctness conditions*
(identity, counters, bounds), never wall-clock performance.
"""

from __future__ import annotations

import os
import sys

import pytest

#: The bench modules import each other by bare name from their directory.
_BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

pytestmark = pytest.mark.bench_smoke


#: Policy variants pinned beyond the registry defaults: the period-floored
#: re-planner, the revised-simplex fast path and the LP-located EDF targets.
_PINNED_VARIANTS = (
    "online-offline:period=0.5",
    "online-offline:backend=revised",
    "deadline-driven:lp_targets=true",
)

#: Policies that solve LPs while they simulate (kept off the larger instance).
_LP_POLICIES = ("online-offline",)


def test_engine_regression_smoke():
    """bench_engine_regression: simulate output equals the frozen seed engine."""
    from _seed_engine import simulate as seed_simulate

    from repro.heuristics import available_schedulers, make_scheduler
    from repro.simulation import simulate
    from repro.workload import make_scenario, random_unrelated_instance

    unrelated = random_unrelated_instance(8, 3, seed=1, cost_range=(2.0, 12.0))
    cluster = make_scenario("small-cluster", 3)
    runs = [(unrelated, policy) for policy in available_schedulers() + list(_PINNED_VARIANTS)]
    runs += [(cluster, policy) for policy in available_schedulers() if policy not in _LP_POLICIES]
    for instance, policy in runs:
        seed_result = seed_simulate(instance, make_scheduler(policy))
        result = simulate(instance, make_scheduler(policy))
        assert result.schedule.pieces == seed_result.schedule.pieces, policy
        assert result.events == seed_result.events, policy
        assert result.completion_times == seed_result.completion_times, policy
        assert result.num_preemptions == seed_result.num_preemptions, policy
        assert result.num_scheduler_calls == seed_result.num_scheduler_calls, policy


def test_replanning_probe_smoke(monkeypatch):
    """bench_replanning: probe path is byte-identical and builds fewer models.

    ``deadline-driven:lp_targets=true`` drives the shared ``ReplanProbe``;
    its economy shows across runs, so one scheduler per path serves four
    simulations.
    """
    from bench_replanning import lp_targets_scheduler

    from repro.simulation import simulate
    from repro.workload import random_unrelated_instance

    scratch_sched = lp_targets_scheduler(monkeypatch, from_scratch=True)
    probe_sched = lp_targets_scheduler(monkeypatch, from_scratch=False)
    for seed in range(4):
        instance = random_unrelated_instance(
            8, 3, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=seed
        )
        scratch = simulate(instance, scratch_sched)
        probed = simulate(instance, probe_sched)
        assert probed.schedule.pieces == scratch.schedule.pieces
        assert probed.events == scratch.events
    assert probe_sched.replan_probe.probes == scratch_sched.replan_probe.probes
    assert (
        probe_sched.replan_probe.model_constructions
        < scratch_sched.replan_probe.model_constructions
    )


def test_campaign_dispatcher_smoke():
    """bench_campaign_dispatcher: streamed records equal the sequential run."""
    from repro.analysis import run_scenario_campaign

    sequential = run_scenario_campaign(
        ("unrelated-stress",), ("srpt", "mct"), base_seed=11, seeds_per_scenario=2
    )
    chunked = run_scenario_campaign(
        ("unrelated-stress",),
        ("srpt", "mct"),
        base_seed=11,
        seeds_per_scenario=2,
        chunk_size=2,
        max_inflight=2,
    )
    assert chunked.records == sequential.records
    assert sequential.stats.offline_solves == sequential.stats.workloads


def test_store_roundtrip_smoke(tmp_path):
    """bench_store_roundtrip: a warm re-run resumes at a 100% skip rate."""
    from repro.analysis import run_scenario_campaign

    path = tmp_path / "smoke.sqlite"
    cold = run_scenario_campaign(
        ("unrelated-stress",), ("srpt",), base_seed=3, store=path, run_label="cold"
    )
    warm = run_scenario_campaign(
        ("unrelated-stress",),
        ("srpt",),
        base_seed=3,
        store=path,
        resume=True,
        run_label="warm",
    )
    assert warm.stats.resume_skip_rate == 1.0
    assert warm.records == cold.records
    assert warm.stats.offline_solves == 0


def test_streaming_runtime_smoke():
    """bench_streaming: deterministic O(active) windows on a small stream."""
    from repro.heuristics import make_scheduler
    from repro.simulation import StreamingSimulator
    from repro.workload import StreamSpec, open_stream

    spec = StreamSpec(label="smoke", scenario="small-cluster", seed=1).with_utilisation(0.6)
    first = StreamingSimulator().run(open_stream(spec), make_scheduler("srpt"), max_arrivals=400)
    second = StreamingSimulator().run(open_stream(spec), make_scheduler("srpt"), max_arrivals=400)
    assert first.completions == 400
    assert first.peak_window <= 2 * first.peak_active + 16
    assert first.fingerprint() == second.fingerprint()


def test_rank_keyed_probe_smoke(monkeypatch):
    """bench_replanning rank-keyed assertion: hit rate rises, schedules equal."""
    from repro.core.replanning import ReplanProbe
    from repro.heuristics import DeadlineDrivenScheduler, deadline_driven
    from repro.simulation import simulate
    from repro.workload import random_unrelated_instance

    instances = [
        random_unrelated_instance(8, 3, forbidden_probability=0.0, seed=s) for s in range(3)
    ]
    with monkeypatch.context() as patch:
        # The raw-structure reference: the policy's probe without rank keying.
        patch.setattr(
            deadline_driven,
            "ReplanProbe",
            lambda **kwargs: ReplanProbe(**{**kwargs, "rank_keyed": False}),
        )
        plain_sched = DeadlineDrivenScheduler(lp_targets=True)
    ranked_sched = DeadlineDrivenScheduler(lp_targets=True)
    plain = [simulate(instance, plain_sched) for instance in instances]
    ranked = [simulate(instance, ranked_sched) for instance in instances]
    for a, b in zip(plain, ranked):
        assert a.schedule.pieces == b.schedule.pieces
    assert (
        ranked_sched.replan_probe.model_constructions
        <= plain_sched.replan_probe.model_constructions
    )


def test_revised_simplex_smoke(monkeypatch):
    """bench_lp_backends: the revised-simplex assertion path at toy size.

    The tier-2 bench asserts the revised solver beats the dense tableau on
    the zero-objective twin of the big lowering LP; tier-1 never times
    anything, so this twin pins the structural claims that speed rests on:
    the revised solve consumes the sparse lowering *without densifying it*,
    reaches the verdict of both scipy and the frozen tableau, and returns a
    valid witness.
    """
    from bench_lp_backends import _largest_bench_feasibility_lp, _violation

    from repro.lp import LPStatus
    from repro.lp.revised_simplex import solve_matrix_form_revised
    from repro.lp.scipy_backend import solve_matrix_form as scipy_solve
    from repro.lp.standard_form import MatrixForm
    from tests.reference.tableau import solve_matrix_form as solve_matrix_form_tableau

    # (6, 3) pins F where its milestone range is infeasible, (12, 4) where
    # it is feasible: both verdicts must agree with scipy before any timing
    # means much.
    infeasible_form = _largest_bench_feasibility_lp(6, 3)
    assert (
        solve_matrix_form_revised(infeasible_form).solution.status
        is scipy_solve(infeasible_form).status
        is LPStatus.INFEASIBLE
    )

    sparse_form = _largest_bench_feasibility_lp(12, 4)
    assert sparse_form.is_sparse
    tableau = solve_matrix_form_tableau(sparse_form.densified())
    reference = scipy_solve(sparse_form)

    monkeypatch.setattr(
        MatrixForm,
        "densified",
        lambda self: (_ for _ in ()).throw(
            AssertionError("revised simplex must not densify")
        ),
    )
    revised = solve_matrix_form_revised(sparse_form)
    monkeypatch.undo()
    assert revised.solution.is_optimal and tableau.is_optimal and reference.is_optimal
    assert _violation(sparse_form, revised.solution.values) <= 1e-9


def test_lp_warm_start_smoke():
    """bench_replanning warm-start identity: warm probes equal cold answers.

    The tier-2 bench asserts the >= 2x replanning speedup; this twin pins
    the identity contract underneath it: a ``revised``-backed probe re-solving
    a drifting objective sequence must (a) actually hit the warm-start path,
    more often than it solves cold, pivoting and timing the warm dual
    re-solve, and (b) return the same verdicts as the scipy-backed
    from-scratch reference at every step.
    """
    from repro.core import check_deadline_feasibility
    from repro.core.replanning import ReplanProbe
    from repro.obs.metrics import MetricsRecorder, install_recorder
    from repro.workload import random_unrelated_instance

    instance = random_unrelated_instance(6, 3, forbidden_probability=0.0, seed=5)
    probe = ReplanProbe(backend="revised")
    recorder = MetricsRecorder()
    previous = install_recorder(recorder)
    try:
        for objective in (5.0, 8.0, 12.0, 20.0, 35.0, 60.0):
            deadlines = [job.release_date + objective for job in instance.jobs]
            warm = probe.check(instance, deadlines, build_schedule=False)
            scratch = check_deadline_feasibility(
                instance, deadlines, build_schedule=False, backend="scipy"
            )
            assert warm.feasible == scratch.feasible, objective
    finally:
        install_recorder(previous)
    snapshot = recorder.snapshot()
    counters = snapshot["counters"]
    assert counters.get("lp.warm_start_hits", 0.0) > counters["lp.cold_solves"] > 0
    assert counters["lp.solves"] > counters["lp.cold_solves"]
    assert snapshot["histograms"]["lp.iterations"]["total"] > 0
    assert snapshot["histograms"]["lp.time.revised.dual"]["count"] > 0


def test_obs_overhead_smoke():
    """bench_obs_overhead: the structural zero-overhead contract at toy size.

    The wall-clock ≤ 3 % bound stays in tier-2 (bench_smoke never asserts
    timing); what this twin pins down is the *structure* that bound rests
    on: a disabled sink is never called at all, aggregate recorder traffic
    is constant in the arrival count, and results and traces are identical
    with obs on or off.
    """
    from repro.heuristics import make_scheduler
    from repro.obs import NullRecorder, collecting, trace_stream_result
    from repro.simulation import StreamingSimulator
    from repro.workload import StreamSpec, open_stream

    class Spy(NullRecorder):
        def __init__(self, enabled):
            self.enabled = enabled
            self.aggregate_calls = 0
            self.observe_calls = 0

        def count(self, name, value=1.0):
            self.aggregate_calls += 1

        def gauge(self, name, value):
            self.aggregate_calls += 1

        def observe(self, name, value):
            self.observe_calls += 1

    spec = StreamSpec(label="obs", scenario="small-cluster", seed=1).with_utilisation(0.6)

    # A disabled sink sees zero calls, regardless of the stream's length.
    aggregates = {}
    for arrivals in (100, 400):
        off_spy = Spy(enabled=False)
        StreamingSimulator(recorder=off_spy).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        assert off_spy.aggregate_calls == 0
        assert off_spy.observe_calls == 0

        on_spy = Spy(enabled=True)
        StreamingSimulator(recorder=on_spy).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        aggregates[arrivals] = on_spy.aggregate_calls
    # O(1) aggregate traffic: same count/gauge calls at 4x the stream.
    assert aggregates[100] == aggregates[400] > 0

    # Results and traces are identical with obs off and on.
    plain = StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=400
    )
    with collecting() as recorder:
        observed = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=400
        )
    assert observed.fingerprint() == plain.fingerprint()
    assert trace_stream_result(observed).to_jsonl() == trace_stream_result(plain).to_jsonl()
    assert recorder.snapshot()["counters"]["stream.arrivals"] == 400.0


def test_journal_overhead_smoke():
    """bench_obs_overhead.journal_overhead at toy size, with a slack floor.

    The >= 97 % journal-on/off throughput floor stays in the tier-2 bench
    (bench_smoke never asserts timing); this twin pins the structure that
    floor rests on: records are identical with the journal attached, every
    journal line parses (no torn tail), and the folded status accounts for
    every record.
    """
    from bench_obs_overhead import journal_overhead

    row = journal_overhead(seeds_per_scenario=1, repeats=1, ratio_floor=0.25)
    assert row["journal_events"] > row["records"] > 0
