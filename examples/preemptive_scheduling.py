#!/usr/bin/env python3
"""Divisible versus preemptive scheduling (Sections 4.3 and 4.4).

The divisible-load model lets a request run on several servers at once; the
preemptive model only allows migration.  This example quantifies what the
divisibility hypothesis buys on a batch of requests and shows the
Lawler–Labetoulle reconstruction at work: the preemptive optimal schedule
never runs a job on two machines simultaneously, yet achieves the optimal
preemptive max weighted flow.

Run with::

    python examples/preemptive_scheduling.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import minimize_max_weighted_flow
from repro.workload import random_restricted_instance


def main() -> None:
    rows = []
    for seed in range(5):
        instance = random_restricted_instance(
            num_jobs=8,
            num_machines=4,
            seed=seed,
            num_databanks=3,
            replication=0.7,
            stretch_weights=True,
        )
        divisible = minimize_max_weighted_flow(instance)
        preemptive = minimize_max_weighted_flow(instance, preemptive=True)
        divisible.schedule.validate()
        preemptive.schedule.validate()
        rows.append(
            (
                f"seed {seed}",
                divisible.objective,
                preemptive.objective,
                preemptive.objective / divisible.objective,
                len(preemptive.schedule),
            )
        )

    print(
        format_table(
            ["instance", "divisible optimum", "preemptive optimum", "ratio", "preemptive pieces"],
            rows,
            title="What the divisibility hypothesis buys (max weighted flow)",
            float_format=".4f",
        )
    )
    print()
    print("The preemptive optimum is always at least the divisible optimum (the")
    print("divisible model is a relaxation); the gap is the price of forbidding")
    print("simultaneous execution of a request on several servers.")
    print()

    # Show one preemptive schedule in detail.
    instance = random_restricted_instance(
        num_jobs=5, num_machines=3, seed=0, num_databanks=2, replication=0.8
    )
    preemptive = minimize_max_weighted_flow(instance, preemptive=True)
    print("One preemptive optimal schedule (Lawler-Labetoulle reconstruction):")
    print(preemptive.schedule.as_table())
    print()
    print("Validation confirms no request ever occupies two servers at the same instant.")
    preemptive.schedule.validate()


if __name__ == "__main__":
    main()
