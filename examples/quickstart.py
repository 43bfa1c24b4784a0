#!/usr/bin/env python3
"""Quickstart: state a scheduling problem and solve it optimally.

This example walks through the core API of the library:

1. describe a heterogeneous platform (machines hosting protein databanks),
2. describe a handful of divisible requests with release dates and weights,
3. minimise the maximum weighted flow off line — first in the divisible-load
   model (Theorem 2 of the paper), then in the preemptive model (Section 4.4),
4. inspect the resulting schedules.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Instance,
    Job,
    Machine,
    Platform,
    minimize_makespan,
    minimize_max_weighted_flow,
)
from repro.analysis import format_key_values


def build_instance() -> Instance:
    """A small GriPPS-like deployment: three servers, two databanks, five requests."""
    platform = Platform(
        [
            Machine("fast-server", cycle_time=0.5, databanks={"sprot"}),
            Machine("big-server", cycle_time=1.0, databanks={"sprot", "pdb"}),
            Machine("old-server", cycle_time=2.0, databanks={"pdb"}),
        ]
    )
    jobs = [
        Job("blast-alice", release_date=0.0, weight=1.0, size=8.0, databanks={"sprot"}),
        Job("scan-bob", release_date=1.0, weight=2.0, size=4.0, databanks={"pdb"}),
        Job("scan-carol", release_date=2.0, weight=1.0, size=12.0, databanks={"sprot"}),
        Job("probe-dave", release_date=4.0, weight=4.0, size=2.0, databanks={"pdb"}),
        Job("scan-erin", release_date=5.0, weight=1.0, size=6.0, databanks={"sprot"}),
    ]
    return Instance.from_platform(jobs, platform)


def main() -> None:
    instance = build_instance()
    print(instance.describe())
    print()

    # --- Makespan (Theorem 1) -------------------------------------------
    makespan = minimize_makespan(instance)
    print(f"Optimal makespan (divisible): {makespan.makespan:.3f} s")

    # --- Max weighted flow, divisible (Theorem 2) -------------------------
    divisible = minimize_max_weighted_flow(instance)
    divisible.schedule.validate()
    print(f"Optimal max weighted flow (divisible): {divisible.objective:.3f}")
    print(f"  milestones enumerated: {len(divisible.milestones)}")
    print(f"  feasibility LPs solved: {divisible.feasibility_checks}")
    print()
    print("Divisible optimal schedule:")
    print(divisible.schedule.as_table())
    print()

    # --- Max weighted flow, preemptive (Section 4.4) ----------------------
    preemptive = minimize_max_weighted_flow(instance, preemptive=True)
    preemptive.schedule.validate()
    print(f"Optimal max weighted flow (preemptive): {preemptive.objective:.3f}")
    print("  (never better than the divisible optimum, as the theory predicts)")
    print()

    # --- Per-job metrics ---------------------------------------------------
    metrics = divisible.schedule.metrics()
    rows = []
    for j, job in enumerate(instance.jobs):
        completion = metrics.completion_times[j]
        rows.append((job.name, f"{completion:.3f}", f"{divisible.schedule.weighted_flow(j):.3f}"))
    print("Per-request completion times and weighted flows (divisible optimum):")
    for name, completion, weighted_flow in rows:
        print(f"  {name:<14} C_j = {completion:>8}   w_j * F_j = {weighted_flow:>8}")
    print()
    print(
        format_key_values(
            [
                ("makespan of the flow-optimal schedule", metrics.makespan),
                ("max flow", metrics.max_flow),
                ("max weighted flow", metrics.max_weighted_flow),
                ("max stretch", metrics.max_stretch),
            ]
        )
    )


if __name__ == "__main__":
    main()
