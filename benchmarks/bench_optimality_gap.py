"""E5 — Sanity of Theorems 1 and 2: the LP optima really are optima.

There is no figure for this in the paper (the results are proofs), but the
reproduction needs an executable counterpart: on random instances the solver's
objective must lower-bound every feasible schedule we can construct by other
means (heuristics, preemptive model), and its own schedule must achieve it.
The bench also reports how large the heuristic-vs-optimal gap typically is,
which is the quantitative backdrop for the paper's Section 5 motivation.
"""

from __future__ import annotations

from repro.analysis import format_table, geometric_mean, summarize
from repro.core import minimize_max_weighted_flow
from repro.heuristics import make_scheduler
from repro.simulation import simulate
from repro.workload import random_restricted_instance, random_unrelated_instance

HEURISTICS = ("mct", "fifo", "srpt")


def _run(num_instances: int):
    gaps = {name: [] for name in HEURISTICS}
    preemptive_ratio = []
    for seed in range(num_instances):
        if seed % 2 == 0:
            instance = random_unrelated_instance(8, 3, seed=seed, forbidden_probability=0.2)
        else:
            instance = random_restricted_instance(8, 3, seed=seed, num_databanks=3)
        divisible = minimize_max_weighted_flow(instance)
        divisible.schedule.validate()
        assert divisible.schedule.max_weighted_flow <= divisible.objective + 1e-4

        preemptive = minimize_max_weighted_flow(instance, preemptive=True)
        preemptive_ratio.append(preemptive.objective / divisible.objective)

        for name in HEURISTICS:
            result = simulate(instance, make_scheduler(name))
            gaps[name].append(result.max_weighted_flow / divisible.objective)
    return gaps, preemptive_ratio


def test_optimality_gap(benchmark, bench_scale):
    num_instances = 8 if bench_scale == "full" else 4
    gaps, preemptive_ratio = benchmark.pedantic(
        _run, args=(num_instances,), rounds=1, iterations=1
    )

    rows = []
    for name, values in gaps.items():
        stats = summarize(values)
        rows.append((name, geometric_mean(values), stats.minimum, stats.maximum))
    rows.append(("preemptive optimum", geometric_mean(preemptive_ratio),
                 min(preemptive_ratio), max(preemptive_ratio)))
    print()
    print(
        format_table(
            ["schedule", "geo-mean ratio to divisible optimum", "min", "max"],
            rows,
            title="E5: everything is bounded below by the divisible LP optimum",
            float_format=".3f",
        )
    )

    # Every heuristic and the preemptive optimum respect the lower bound.
    for values in gaps.values():
        assert all(value >= 1.0 - 1e-6 for value in values)
    assert all(value >= 1.0 - 1e-6 for value in preemptive_ratio)
    # And the heuristics leave a real gap on average (otherwise the paper's
    # algorithm would be pointless).
    assert geometric_mean(gaps["mct"]) > 1.02
