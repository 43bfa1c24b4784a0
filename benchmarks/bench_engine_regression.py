"""Regression bench: ``simulate`` (the event loop's finite mode) vs the seed engine.

Two guarantees are protected here:

1. **Byte-for-byte compatibility** — ``simulate`` produces exactly the same
   ``SchedulePiece`` list, event trace, completion times and preemption
   counts as the frozen seed engine, over every registered policy.
2. **No slower on a single simulation** — on a campaign-sized instance the
   event loop must at least match the seed engine's per-job Python loops.
"""

from __future__ import annotations

import time

from repro.heuristics import available_schedulers, make_scheduler
from repro.simulation import simulate, simulate_many
from repro.workload import make_scenario, random_unrelated_instance

import _seed_engine


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


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
    num_jobs = 300 if bench_scale == "full" else 150
    instance = random_unrelated_instance(num_jobs, 6, seed=3)
    repeats = 5

    seed_seconds = _best_of(
        lambda: _seed_engine.simulate(instance, make_scheduler("fifo")), repeats
    )
    loop_seconds = _best_of(lambda: simulate(instance, make_scheduler("fifo")), repeats)

    print()
    print(
        f"single simulation, n={num_jobs}: seed {seed_seconds * 1e3:.2f} ms, "
        f"event loop {loop_seconds * 1e3:.2f} ms "
        f"({seed_seconds / loop_seconds:.2f}x)"
    )
    # "No slower", with a 10% cushion against timer noise.
    assert loop_seconds <= seed_seconds * 1.10


def test_simulate_many_matches_seed_engine_across_seeds():
    instances = [random_unrelated_instance(60, 5, seed=s) for s in range(8)]
    results = simulate_many(instances, lambda: make_scheduler("mct"))
    assert len(results) == 8
    for instance, result in zip(instances, results):
        reference = _seed_engine.simulate(instance, make_scheduler("mct"))
        assert result.schedule.pieces == reference.schedule.pieces
