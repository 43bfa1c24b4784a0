"""Acceptance bench for the streaming arrival-stream runtime (PR 5 + PR 7).

Protects the subsystem's headline guarantees:

1. **O(active) memory** — a 100k-arrival Poisson stream simulates with a
   window bounded by the queue's natural occupancy (twice the peak live
   count plus the compaction hysteresis), never by the arrival count.
2. **Determinism** — two runs of the same :class:`StreamSpec` are
   byte-identical (completion series, counters, fingerprint).
3. **Resumable sweeps** — a ρ-sweep re-run against its experiment store
   reaches a 100 % skip rate and reconstructs bit-identical reports.
4. **Fast core** — the zero-copy view engine runs ≥ 4× the throughput of
   the frozen rebuild-per-arrival reference (``run_rebuild``), measured in
   the same session, while staying byte-identical to it — for every
   registered policy, at both compaction timings, and through
   ``replay_stream`` round trips.

Plus the saturation contract: a super-critical stream is flagged and cut
short instead of looping (or allocating) forever.

Marked ``bench`` (hence tier-2): run with ``-m bench``/``-m tier2`` or by
dropping the tier-1 filter.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.analysis import analyse_stream, run_stream_sweep
from repro.heuristics import available_schedulers, make_scheduler
from repro.simulation import StreamingSimulator
from repro.workload import StreamSpec, open_stream, replay_stream
from tests.reference.stream_legacy import run_rebuild

#: Alternating (rebuild, view) pairs behind the speedup median.
SPEEDUP_PAIRS = 3


def _run_engine(engine, simulator, stream, scheduler, **run_kwargs):
    """Run the fast core ("view") or the frozen reference ("rebuild")."""
    if engine == "rebuild":
        return run_rebuild(simulator, stream, scheduler, **run_kwargs)
    return simulator.run(stream, scheduler, **run_kwargs)


@pytest.mark.bench
def test_100k_arrival_stream_is_o_active_and_byte_identical():
    arrivals = 100_000  # the acceptance size at every bench scale
    spec = StreamSpec(
        label="accept", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)
    simulator = StreamingSimulator()

    start = time.perf_counter()
    first = simulator.run(open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals)
    elapsed = time.perf_counter() - start

    assert first.completions == arrivals
    assert not first.saturated
    # O(active): the window tracks the queue's natural occupancy.  At 70%
    # load the M/G/m-ish queue idles around a dozen jobs; the bound below is
    # structural (compaction rule), the second is the "not O(total)" claim.
    assert first.peak_window <= 2 * first.peak_active + 16
    assert first.peak_window < arrivals // 100

    second = simulator.run(open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals)
    assert second.fingerprint() == first.fingerprint()

    report = analyse_stream(first)
    assert not report.saturated
    assert report.mean_stretch.half_width < report.mean_stretch.mean

    print(
        f"[stream] {arrivals} arrivals in {elapsed:.2f}s "
        f"({first.arrivals_per_second:.0f} arrivals/s), peak active "
        f"{first.peak_active}, peak window {first.peak_window}, "
        f"{first.compactions} compactions, mean stretch "
        f"{report.mean_stretch.mean:.3f} ± {report.mean_stretch.half_width:.3f}"
    )


@pytest.mark.bench
def test_view_engine_clears_speedup_floors_on_100k_stream():
    """Fast-core acceptance: ≥ 4× the rebuild reference's throughput.

    The baseline is the frozen rebuild-per-arrival loop (``run_rebuild``)
    re-run here on the same workload, so host speed cancels out.  Runs
    alternate rebuild/view over ``SPEEDUP_PAIRS`` pairs; the floor applies
    to the median per-pair ratio, and every pair also checks the fast
    path's byte-identity on the exact acceptance workload.
    """
    arrivals = 100_000
    spec = StreamSpec(
        label="accept", scenario="small-cluster", seed=2005
    ).with_utilisation(0.7)

    ratios = []
    for _ in range(SPEEDUP_PAIRS):
        runs = {}
        for engine in ("rebuild", "view"):
            runs[engine] = _run_engine(
                engine,
                StreamingSimulator(),
                open_stream(spec),
                make_scheduler("srpt"),
                max_arrivals=arrivals,
            )
        assert runs["rebuild"].fingerprint() == runs["view"].fingerprint()
        ratios.append(runs["view"].arrivals_per_second / runs["rebuild"].arrivals_per_second)

    ratio = statistics.median(ratios)
    print(
        f"[stream] view/rebuild throughput over {SPEEDUP_PAIRS} alternating pairs: "
        f"median {ratio:.2f}x (pairs: {', '.join(f'{r:.2f}x' for r in ratios)})"
    )
    assert ratio >= 4.0, f"view path only {ratio:.2f}x over the rebuild reference"


@pytest.mark.bench
def test_every_policy_is_byte_identical_across_engines_and_compactions():
    """View vs rebuild: same fingerprints, series and replays, all policies.

    Every registered policy runs through both engines at both compaction
    timings (forced-early ``compact_min=1`` and effectively-never
    ``compact_min=10**9``) plus the default; the LP-backed policies get a
    shorter stream to keep the matrix under a minute.  Each view run's
    completion series and queue traces must match the rebuild reference
    byte for byte, and a ``replay_stream`` round trip of a finite workload
    must agree across engines as well.
    """
    lp_backed = {"deadline-driven", "online-offline"}
    spec = StreamSpec(label="id", scenario="small-cluster", seed=11).with_utilisation(0.8)

    for policy in available_schedulers():
        arrivals = 60 if policy in lp_backed else 400
        for compact_min in (1, 64, 10**9):
            runs = {}
            for engine in ("rebuild", "view"):
                runs[engine] = _run_engine(
                    engine,
                    StreamingSimulator(compact_min=compact_min),
                    open_stream(spec),
                    make_scheduler(policy),
                    max_arrivals=arrivals,
                )
            assert runs["view"].fingerprint() == runs["rebuild"].fingerprint(), (
                f"{policy} diverges at compact_min={compact_min}"
            )
            assert (
                runs["view"].queue_times.tobytes()
                == runs["rebuild"].queue_times.tobytes()
            )
            assert (
                runs["view"].queue_lengths.tobytes()
                == runs["rebuild"].queue_lengths.tobytes()
            )

        # Replay bridge: a finite instance streamed through replay_stream
        # must execute identically on both engines too.
        from repro.workload import random_unrelated_instance

        instance = random_unrelated_instance(30, 3, seed=5)
        replays = {}
        for engine in ("rebuild", "view"):
            replays[engine] = _run_engine(
                engine, StreamingSimulator(), replay_stream(instance), make_scheduler(policy)
            )
        assert replays["view"].fingerprint() == replays["rebuild"].fingerprint(), (
            f"{policy} diverges on the replay bridge"
        )
    print(f"[stream] {len(available_schedulers())} policies byte-identical "
          f"across engines, compaction timings and replays")


@pytest.mark.bench
def test_flat_memory_profile_as_the_stream_grows():
    """Peak window must not grow with the arrival count (steady state)."""
    spec = StreamSpec(label="flat", scenario="small-cluster", seed=7).with_utilisation(0.6)
    simulator = StreamingSimulator()
    windows = []
    for arrivals in (2_000, 8_000, 32_000):
        result = simulator.run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        windows.append(result.peak_window)
        print(f"[stream] {arrivals} arrivals -> peak window {result.peak_window}")
    # 16x more arrivals may not cost more than ~2x the window (the queue's
    # occupancy distribution has a tail; the window must not trend with N).
    assert windows[-1] <= 2 * windows[0] + 16


@pytest.mark.bench
def test_rho_sweep_resumes_at_full_skip_rate(tmp_path, bench_scale):
    arrivals = 5_000 if bench_scale == "full" else 1_500
    spec = StreamSpec(label="sweep", scenario="small-cluster", seed=2005)
    policies = ("srpt", "greedy-weighted-flow", "mct")
    rhos = (0.3, 0.5, 0.7, 0.9)
    path = tmp_path / "sweep.sqlite"

    start = time.perf_counter()
    cold = run_stream_sweep(
        spec, policies, rhos=rhos, max_arrivals=arrivals, store=path, run_label="cold"
    )
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_stream_sweep(
        spec,
        policies,
        rhos=rhos,
        max_arrivals=arrivals,
        store=path,
        resume=True,
        run_label="warm",
    )
    warm_seconds = time.perf_counter() - start

    assert warm.stats.resume_skip_rate == 1.0
    assert warm.stats.arrivals == 0
    assert [r.report.as_dict() for r in warm.records] == [
        r.report.as_dict() for r in cold.records
    ]
    print(
        f"[stream] {len(cold.records)}-cell rho sweep: cold {cold_seconds:.2f}s "
        f"({cold.stats.arrivals_per_second:.0f} arrivals/s), resumed "
        f"{warm_seconds:.2f}s at 100% skip rate "
        f"({cold_seconds / max(warm_seconds, 1e-9):.0f}x)"
    )


@pytest.mark.bench
def test_supercritical_load_saturates_quickly():
    spec = StreamSpec(label="hot", scenario="small-cluster", seed=3).with_utilisation(1.4)
    simulator = StreamingSimulator(max_active=500)
    start = time.perf_counter()
    result = simulator.run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=10_000_000
    )
    elapsed = time.perf_counter() - start
    assert result.saturated
    assert result.arrivals < 100_000  # cut short, nowhere near the budget
    assert elapsed < 60.0
    print(
        f"[stream] rho=1.4 saturated after {result.arrivals} arrivals "
        f"({elapsed:.2f}s, queue {result.peak_active})"
    )
