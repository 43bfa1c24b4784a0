"""Acceptance bench for the observability layer (PR 8).

Protects the subsystem's headline guarantees:

1. **Zero overhead when disabled** — the default ``NullRecorder`` run stays
   within 3 % of an uninstrumented twin (the recording hooks overridden
   away), measured as interleaved best-of-N throughput on the streaming
   hot path.
2. **Bounded recorder traffic** — the streaming engine emits a *constant*
   number of aggregate ``count``/``gauge`` calls per run (never per
   event), and exactly zero recorder calls of any kind when the sink is
   disabled; only ``observe`` scales, and only with admission batches.
3. **Deterministic traces** — two identical runs, and the simulator vs
   the frozen ``run_rebuild`` reference on the same replayed workload,
   serialise to byte-identical JSON-lines traces.
4. **Enabled-mode cost is recorded** — the metrics-on/metrics-off
   throughput ratio is printed for the trajectory (and must stay sane).
5. **The run journal is cheap and inert** — a campaign with a journal
   attached keeps at least 97 % of the disabled campaign's throughput,
   its records are identical, and the journal it wrote parses completely
   and accounts for every record.

Marked ``bench`` (hence tier-2): run with ``-m bench``/``-m tier2`` or by
dropping the tier-1 filter.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

import pytest

from repro.analysis import run_scenario_campaign
from repro.heuristics import make_scheduler
from repro.obs import (
    NullRecorder,
    analyse_journal,
    collecting,
    read_journal,
    trace_stream_result,
)
from repro.simulation import StreamingSimulator
from repro.workload import (
    StreamSpec,
    open_stream,
    random_unrelated_instance,
    replay_stream,
)
from tests.reference.stream_legacy import run_rebuild

#: Disabled-mode overhead bound of ISSUE 8: NullRecorder throughput within
#: 3 % of the uninstrumented baseline.
OVERHEAD_BOUND = 0.03

#: Journal-enabled campaign throughput as a fraction of the disabled one.
JOURNAL_RATIO_FLOOR = 0.97


class _UninstrumentedSimulator(StreamingSimulator):
    """The instrumentation-free twin used as the overhead baseline.

    ``_record_result`` is the engine's only recorder touchpoint besides
    the hoisted ``recorder.enabled`` boolean in the admission loop, so
    overriding it away recovers the pre-obs engine without forking it.
    """

    @staticmethod
    def _record_result(recorder, result):
        return None


class _SpyRecorder(NullRecorder):
    """Counts recorder-method invocations, optionally pretending enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.count_calls = 0
        self.gauge_calls = 0
        self.observe_calls = 0

    def count(self, name, value=1.0):
        self.count_calls += 1

    def gauge(self, name, value):
        self.gauge_calls += 1

    def observe(self, name, value):
        self.observe_calls += 1


def _timed_run(simulator_factory, spec, arrivals):
    """Wall-clock seconds of one fresh run (scheduler/stream outside)."""
    simulator = simulator_factory()
    scheduler = make_scheduler("srpt")
    stream = open_stream(spec)
    start = time.perf_counter()
    result = simulator.run(stream, scheduler, max_arrivals=arrivals)
    return time.perf_counter() - start, result


def _best_throughput(simulator_factory, spec, arrivals, repeats):
    """Best (max) arrivals/sec over ``repeats`` runs: robust to load spikes."""
    best = 0.0
    fingerprint = None
    for _ in range(repeats):
        elapsed, result = _timed_run(simulator_factory, spec, arrivals)
        best = max(best, arrivals / elapsed)
        fingerprint = result.fingerprint()
    return best, fingerprint


@pytest.mark.bench
def test_disabled_mode_overhead_within_three_percent(bench_scale):
    """NullRecorder default vs the uninstrumented twin: ≤ 3 % apart.

    The true overhead is one dead boolean per admission batch plus a
    handful of post-loop no-op calls — far below this machine's run-to-run
    noise (±10-20 % observed).  So the measurement is designed for drift
    cancellation, not raw speed: ABBA blocks (default, twin, twin,
    default) make any monotone load drift hit both arms equally within a
    block, each block yields one paired ratio, and the *median* over the
    blocks is asserted.  The fingerprints must agree — the twin changes
    timing only.
    """
    arrivals = 30_000 if bench_scale == "full" else 20_000
    blocks = 10
    spec = StreamSpec(
        label="overhead", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)

    # Warm both paths (allocator, scenario caches) before measuring.
    _, warm_default = _timed_run(StreamingSimulator, spec, 2_000)
    _, warm_bare = _timed_run(_UninstrumentedSimulator, spec, 2_000)
    assert warm_default.fingerprint() == warm_bare.fingerprint()

    block_ratios = []
    for _ in range(blocks):
        a1, _ = _timed_run(StreamingSimulator, spec, arrivals)
        b1, _ = _timed_run(_UninstrumentedSimulator, spec, arrivals)
        b2, _ = _timed_run(_UninstrumentedSimulator, spec, arrivals)
        a2, _ = _timed_run(StreamingSimulator, spec, arrivals)
        block_ratios.append((b1 + b2) / (a1 + a2))  # > 1: default faster

    ratio = statistics.median(block_ratios)
    print(
        f"[obs] disabled-mode throughput ratio (default/uninstrumented): "
        f"median {ratio:.3f} over {blocks} ABBA blocks "
        f"(spread {min(block_ratios):.3f}..{max(block_ratios):.3f}, "
        f"bound {1 - OVERHEAD_BOUND:.2f})"
    )
    assert ratio >= 1.0 - OVERHEAD_BOUND, (
        f"disabled-mode instrumentation costs {(1 - ratio):.1%} "
        f"(> {OVERHEAD_BOUND:.0%}) by paired-median: {sorted(block_ratios)}"
    )


@pytest.mark.bench
def test_enabled_mode_ratio_is_sane(bench_scale):
    """Metrics-on throughput stays within 2x of metrics-off (reported)."""
    arrivals = 40_000 if bench_scale == "full" else 15_000
    spec = StreamSpec(
        label="enabled", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)
    StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=2_000
    )

    off_rate, off_fp = _best_throughput(StreamingSimulator, spec, arrivals, 3)
    on_best = 0.0
    on_fp = None
    for _ in range(3):
        simulator = StreamingSimulator()
        start = time.perf_counter()
        with collecting() as recorder:
            result = simulator.run(
                open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
            )
        elapsed = time.perf_counter() - start
        on_best = max(on_best, arrivals / elapsed)
        on_fp = result.fingerprint()
    snapshot = recorder.snapshot()

    assert on_fp == off_fp  # metrics never perturb the simulation
    assert snapshot["counters"]["stream.arrivals"] == float(arrivals)
    ratio = on_best / off_rate
    print(
        f"[obs] enabled-mode: {on_best:.0f} arrivals/s vs {off_rate:.0f} "
        f"arrivals/s off (ratio {ratio:.3f}); "
        f"{snapshot['histograms']['stream.batch_size']['count']:g} batches observed"
    )
    assert ratio >= 0.5, f"metrics-on run slower than 2x off ({ratio:.3f})"


@pytest.mark.bench
def test_recorder_traffic_is_constant_per_run():
    """Aggregate calls never scale with arrivals; disabled sinks see none."""
    spec = StreamSpec(
        label="spy", scenario="small-cluster", seed=11
    ).with_utilisation(0.6)

    for arrivals in (500, 2_000):
        spy = _SpyRecorder(enabled=False)
        StreamingSimulator(recorder=spy).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        assert spy.count_calls == spy.gauge_calls == spy.observe_calls == 0, (
            f"disabled sink was called at {arrivals} arrivals"
        )

    traffic = {}
    for arrivals in (500, 2_000):
        spy = _SpyRecorder(enabled=True)
        StreamingSimulator(recorder=spy).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        traffic[arrivals] = (spy.count_calls, spy.gauge_calls, spy.observe_calls)
    # count/gauge are post-loop aggregates: identical at 4x the stream.
    assert traffic[500][:2] == traffic[2_000][:2]
    # observe is per admission batch — bounded by arrivals, never events.
    assert traffic[2_000][2] <= 2_000
    print(
        f"[obs] recorder traffic at 500 vs 2000 arrivals: "
        f"{traffic[500]} vs {traffic[2_000]} (count, gauge, observe)"
    )


@pytest.mark.bench
def test_traces_byte_identical_across_runs_and_engines():
    """The acceptance determinism contract of the tracing pillar."""
    spec = StreamSpec(
        label="trace", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)
    first = StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=5_000
    )
    second = StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=5_000
    )
    text = trace_stream_result(first).to_jsonl()
    assert text == trace_stream_result(second).to_jsonl()
    assert text  # non-trivial trace
    assert trace_stream_result(first).to_chrome() == trace_stream_result(
        second
    ).to_chrome()

    instance = random_unrelated_instance(30, 3, seed=5)
    for policy in ("srpt", "mct"):
        texts = {
            "rebuild": trace_stream_result(
                run_rebuild(StreamingSimulator(), replay_stream(instance), make_scheduler(policy))
            ).to_jsonl(),
            "view": trace_stream_result(
                StreamingSimulator().run(replay_stream(instance), make_scheduler(policy))
            ).to_jsonl(),
        }
        assert texts["view"] == texts["rebuild"], (
            f"{policy} traces diverge across engines"
        )
    lines = text.count("\n")
    print(f"[obs] traces byte-identical across runs and engines ({lines} events)")


@pytest.mark.bench
def test_wall_clock_annotations_are_outside_the_contract():
    """Annotated traces differ run to run; unannotated prefixes agree."""
    spec = StreamSpec(label="ann", scenario="small-cluster", seed=3).with_utilisation(0.5)
    result = StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=500
    )
    plain = trace_stream_result(result).to_jsonl()
    annotated = trace_stream_result(result)
    annotated.annotate_wall_clock("bench-mark", result.end_time)
    text = annotated.to_jsonl()
    assert text.startswith(plain)
    assert '"wall"' in text and '"wall"' not in plain


def journal_overhead(
    seeds_per_scenario: int = 3,
    repeats: int = 5,
    ratio_floor: float = JOURNAL_RATIO_FLOOR,
) -> dict:
    """Journal-on vs journal-off campaign throughput, records and readback.

    The same campaign runs with and without a journal attached,
    interleaved best-of-``repeats`` per arm; the journal-enabled run must
    keep at least ``ratio_floor`` of the disabled run's throughput and
    produce identical records (the journal is a reporting channel, never
    an input).  The last journal written is read back: every line parses
    and the folded status accounts for every record.  The tier-1 smoke
    twin passes a slack floor, because timer noise dominates toy runs.
    """
    scenarios = ("unrelated-stress",)
    policies = ("mct", "srpt")

    def campaign(**kwargs):
        start = time.perf_counter()
        result = run_scenario_campaign(
            scenarios,
            policies,
            base_seed=2005,
            seeds_per_scenario=seeds_per_scenario,
            **kwargs,
        )
        return time.perf_counter() - start, result.records

    with tempfile.TemporaryDirectory() as tmp:
        # One untimed warmup so cold caches (imports, LP factorisations)
        # don't land on whichever timed arm happens to run first.
        run_scenario_campaign(scenarios, policies, base_seed=2005, seeds_per_scenario=1)

        # A single ~150 ms arm can lose > 5 % to unrelated machine load, so
        # a below-floor ratio is re-measured (bounded retries) before it is
        # treated as a real regression; a persistent slowdown still fails.
        for attempt in range(3):
            off_best = on_best = float("inf")
            for rep in range(repeats):
                elapsed, off_records = campaign()
                off_best = min(off_best, elapsed)
                path = os.path.join(tmp, f"campaign-{attempt}-{rep}.jsonl")
                elapsed, on_records = campaign(journal=path)
                on_best = min(on_best, elapsed)
                assert on_records == off_records
            ratio = off_best / on_best
            if ratio >= ratio_floor:
                break
        assert ratio >= ratio_floor, (
            f"journal-enabled campaign at {ratio:.3f}x of disabled throughput "
            f"(floor {ratio_floor}x)"
        )

        view = read_journal(path)
        assert view.truncated == 0
        status = analyse_journal(view.events)
        assert status.status == "completed"
        assert status.done == len(on_records)
    return {"ratio": ratio, "records": len(on_records), "journal_events": len(view)}


@pytest.mark.bench
def test_journal_keeps_campaign_throughput():
    """Journal-enabled campaign throughput >= 97 % of the disabled one."""
    row = journal_overhead()
    print(
        f"[obs] journal-on/off campaign throughput ratio {row['ratio']:.3f} "
        f"(floor {JOURNAL_RATIO_FLOOR}); {row['records']} records, "
        f"{row['journal_events']} journal events"
    )
