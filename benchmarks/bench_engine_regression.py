"""Regression bench: ``simulate`` (the event loop's finite mode) vs the seed engine.

Two guarantees are protected here:

1. **Byte-for-byte compatibility** — ``simulate`` produces exactly the same
   ``SchedulePiece`` list, event trace, completion times and preemption
   counts as the frozen seed engine, over every registered policy.
2. **No slower on a single simulation** — on a campaign-sized instance the
   event loop must at least match the seed engine's per-job Python loops.
"""

from __future__ import annotations

import statistics
import time

from repro.heuristics import available_schedulers, make_scheduler
from repro.simulation import simulate
from repro.workload import make_scenario, random_unrelated_instance

import _seed_engine


def _seconds(callable_) -> float:
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start


def test_kernel_matches_seed_engine_byte_for_byte():
    instances = [make_scenario(name, seed=17) for name in ("hotspot", "bursty-batch")]
    instances += [random_unrelated_instance(25, 4, seed=s) for s in (0, 1)]
    for instance in instances:
        for policy in available_schedulers():
            new = simulate(instance, make_scheduler(policy))
            old = _seed_engine.simulate(instance, make_scheduler(policy))
            assert new.schedule.pieces == old.schedule.pieces, policy
            assert new.events == old.events, policy
            assert new.completion_times == old.completion_times, policy
            assert new.num_preemptions == old.num_preemptions, policy
            assert new.num_scheduler_calls == old.num_scheduler_calls, policy


def test_event_loop_is_no_slower_than_seed_on_a_single_simulation(bench_scale):
    """The event loop costs at most 1.10x the seed engine, as a paired median.

    A best-of-N per side lets a slow phase of a shared host that lands on
    one side alone decide the verdict, so the timing is paired as in
    ``bench_replanning.py``: ABBA blocks (seed, loop, loop, seed) make a
    monotone load drift hit both arms equally within a block, each block
    yields one paired ratio, and the *median* over the blocks is asserted.
    """
    num_jobs = 300 if bench_scale == "full" else 150
    instance = random_unrelated_instance(num_jobs, 6, seed=3)
    blocks = 7

    def seed():
        _seed_engine.simulate(instance, make_scheduler("fifo"))

    def loop():
        simulate(instance, make_scheduler("fifo"))

    # Warm both engines once (imports, first-call setup) before measuring.
    seed()
    loop()
    block_ratios = []
    for _ in range(blocks):
        a1 = _seconds(seed)
        b1 = _seconds(loop)
        b2 = _seconds(loop)
        a2 = _seconds(seed)
        block_ratios.append((b1 + b2) / (a1 + a2))  # < 1: the event loop is faster
    ratio = statistics.median(block_ratios)

    print()
    print(
        f"single simulation, n={num_jobs}: event loop / seed time, median "
        f"{ratio:.3f} over {blocks} ABBA blocks "
        f"(spread {min(block_ratios):.3f}..{max(block_ratios):.3f}, bound 1.10)"
    )
    # "No slower", with a 10% cushion against timer noise.
    assert ratio <= 1.10, f"paired-median ratios: {sorted(block_ratios)}"


def test_seed_sweep_matches_seed_engine():
    for seed in range(8):
        instance = random_unrelated_instance(60, 5, seed=seed)
        result = simulate(instance, make_scheduler("mct"))
        reference = _seed_engine.simulate(instance, make_scheduler("mct"))
        assert result.schedule.pieces == reference.schedule.pieces
