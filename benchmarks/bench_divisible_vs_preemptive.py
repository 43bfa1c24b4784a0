"""E9 — Ablation: what the divisibility hypothesis buys (Section 4.3 vs 4.4).

The divisible-load model is a relaxation of the preemptive model, which is in
turn a relaxation of non-preemptive execution.  The bench quantifies the two
gaps on GriPPS-shaped workloads:

* ``preemptive optimum / divisible optimum`` — the price of forbidding a
  request from using several servers at once;
* ``MCT (non-divisible, non-preemptive) / divisible optimum`` — the further
  price of irrevocable placement.

The reproduced claim is the ordering divisible <= preemptive <= MCT, plus the
observation (implicit in the paper's modelling choice) that the divisible and
preemptive optima are usually close, while one-shot heuristics lag behind.
"""

from __future__ import annotations

from repro.analysis import format_table, geometric_mean
from repro.core import minimize_max_weighted_flow
from repro.heuristics import make_scheduler
from repro.simulation import simulate
from repro.workload import random_restricted_instance


def _run(num_instances: int, num_jobs: int):
    records = []
    for seed in range(num_instances):
        instance = random_restricted_instance(
            num_jobs, 4, seed=seed, num_databanks=3, replication=0.7, stretch_weights=True
        )
        divisible = minimize_max_weighted_flow(instance).objective
        preemptive = minimize_max_weighted_flow(instance, preemptive=True).objective
        mct = simulate(instance, make_scheduler("mct")).max_weighted_flow
        records.append(
            {
                "seed": seed,
                "divisible": divisible,
                "preemptive": preemptive,
                "mct": mct,
            }
        )
    return records


def test_divisible_vs_preemptive_vs_mct(benchmark, bench_scale):
    num_instances = 6 if bench_scale == "full" else 3
    num_jobs = 10 if bench_scale == "full" else 7
    records = benchmark.pedantic(_run, args=(num_instances, num_jobs), rounds=1, iterations=1)

    rows = [
        (
            record["seed"],
            record["divisible"],
            record["preemptive"],
            record["mct"],
            record["preemptive"] / record["divisible"],
            record["mct"] / record["divisible"],
        )
        for record in records
    ]
    print()
    print(
        format_table(
            ["seed", "divisible opt", "preemptive opt", "MCT", "preemptive/divisible",
             "MCT/divisible"],
            rows,
            title="E9: the relaxation hierarchy on GriPPS-shaped workloads (max stretch)",
            float_format=".4f",
        )
    )
    preemptive_gap = geometric_mean([r["preemptive"] / r["divisible"] for r in records])
    mct_gap = geometric_mean([r["mct"] / r["divisible"] for r in records])
    print(f"geometric-mean gaps: preemptive {preemptive_gap:.3f}, MCT {mct_gap:.3f}")

    for record in records:
        assert record["divisible"] <= record["preemptive"] + 1e-6
        assert record["preemptive"] <= record["mct"] * (1 + 1e-6)
    # The divisible relaxation is tight-ish; MCT is the one that really pays.
    assert preemptive_gap < mct_gap
