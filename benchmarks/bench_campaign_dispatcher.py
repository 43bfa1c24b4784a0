"""Acceptance bench for the streaming campaign dispatcher (PR 2 tentpole).

Protects the dispatcher's two headline properties on a scenario sweep:

1. **Correctness under streaming** — a multi-seed × multi-scenario sweep over
   ≥ 3 policies dispatched with bounded in-flight items produces metrics
   identical (within tolerance) to a plain sequential run.
2. **Probe economy** — the campaign performs strictly fewer
   ``FeasibilityProbe`` constructions than (workloads × policies): one probe
   per workload is shared across that workload's policy items.

Run ``--bench-scale full`` for the 500-instance version of the sweep
(5 scenarios × 100 spawned seeds); the default small scale sweeps 40.
"""

from __future__ import annotations

import pytest

from repro.analysis import CampaignStats, WorkloadSpec, run_scenario_campaign, stream_campaign
from repro.workload import scenario_grid

SCENARIOS = (
    "small-cluster",
    "replicated-portal",
    "hotspot",
    "bursty-batch",
    "unrelated-stress",
)
POLICIES = ("mct", "greedy-weighted-flow", "srpt")
BASE_SEED = 2005


# --------------------------------------------------------------------------- #
# Benches                                                                      #
# --------------------------------------------------------------------------- #
def test_sweep_streams_correctly_in_bounded_memory(bench_scale):
    seeds_per_scenario = 100 if bench_scale == "full" else 8
    workloads = len(SCENARIOS) * seeds_per_scenario

    sequential = run_scenario_campaign(
        SCENARIOS,
        POLICIES,
        base_seed=BASE_SEED,
        seeds_per_scenario=seeds_per_scenario,
    )
    streamed = run_scenario_campaign(
        SCENARIOS,
        POLICIES,
        base_seed=BASE_SEED,
        seeds_per_scenario=seeds_per_scenario,
        max_workers=0,
        chunk_size=1,
        max_inflight=16,
    )

    # Metrics identical (within tolerance) to the sequential run, in the
    # same deterministic order.
    assert len(streamed.records) == len(sequential.records) == workloads * (len(POLICIES) + 1)
    for mine, reference in zip(streamed.records, sequential.records):
        assert mine.workload == reference.workload
        assert mine.policy == reference.policy
        assert mine.max_weighted_flow == pytest.approx(reference.max_weighted_flow, rel=1e-9)
        assert mine.normalised == pytest.approx(reference.normalised, rel=1e-9)

    # Bounded in-flight futures, by construction and in the recorded stats.
    assert streamed.stats.peak_in_flight <= 16

    # Probe economy: strictly fewer probe constructions than workloads x
    # policies — the sequential path hits exactly one per workload.
    policy_count = len(POLICIES) + 1  # + offline-optimal
    assert sequential.stats.probe_constructions == workloads
    assert sequential.stats.probe_constructions < workloads * policy_count
    assert streamed.stats.probe_constructions < workloads * policy_count

    print()
    print(
        f"sweep of {workloads} workloads x {policy_count} policies: "
        f"sequential {sequential.stats.scenarios_per_second:.1f} scenarios/s, "
        f"streamed {streamed.stats.scenarios_per_second:.1f} scenarios/s, "
        f"probe constructions {streamed.stats.probe_constructions} "
        f"(naive: {workloads * policy_count})"
    )


def test_lazy_specs_keep_the_parent_memory_bounded(bench_scale):
    seeds_per_scenario = 100 if bench_scale == "full" else 20
    grid = scenario_grid(
        SCENARIOS, base_seed=BASE_SEED, seeds_per_scenario=seeds_per_scenario
    )
    specs = [WorkloadSpec.from_scenario(item) for item in grid]
    # A spec is a label and two scalars — the whole 500-item grid costs less
    # than a single materialised instance.
    assert all(spec.instance is None for spec in specs)

    stats = CampaignStats()
    emitted = 0
    for record in stream_campaign(
        iter(specs[:10]), ("mct",), max_workers=None, stats=stats
    ):
        emitted += 1  # records arrive incrementally, not as one batch
        assert stats.records >= emitted
    assert emitted == 20  # 10 workloads x (offline + mct)
