"""Tests for the on-line adaptation of the off-line algorithm (Section 5)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Instance, Job, minimize_max_weighted_flow
from repro.heuristics import MCTScheduler, OnlineOfflineAdaptationScheduler
from repro.simulation import simulate
from repro.obs.metrics import collecting
from repro.workload import make_scenario, random_restricted_instance, random_unrelated_instance


def _replanning_fingerprint(instance) -> str:
    """sha256 of a revised-backend online-offline run: pieces, completions, pivots."""
    from repro.heuristics import make_scheduler

    with collecting() as recorder:
        result = simulate(instance, make_scheduler("online-offline:backend=revised"))
    digest = hashlib.sha256()
    for piece in result.schedule.pieces:
        digest.update(
            f"{piece.job_index},{piece.machine_index},{piece.start.hex()},"
            f"{piece.end.hex()},{piece.fraction.hex()};".encode()
        )
    for job, time in sorted(result.completion_times.items()):
        digest.update(f"{job}:{time.hex()};".encode())
    iterations = recorder.snapshot()["histograms"]["lp.iterations"]["total"]
    digest.update(f"iterations={iterations!r}".encode())
    return digest.hexdigest()


class TestPlanFollowing:
    def test_single_job_matches_offline_optimum(self, single_job_instance):
        scheduler = OnlineOfflineAdaptationScheduler()
        result = simulate(single_job_instance, scheduler)
        result.schedule.validate()
        offline = minimize_max_weighted_flow(single_job_instance).objective
        assert result.max_weighted_flow <= offline * 1.02 + 1e-6

    def test_batch_instance_is_near_optimal(self, batch_instance):
        scheduler = OnlineOfflineAdaptationScheduler()
        result = simulate(batch_instance, scheduler)
        result.schedule.validate()
        offline = minimize_max_weighted_flow(batch_instance).objective
        # With every job released at time 0, the on-line policy sees the same
        # information as the off-line solver; up to the bisection precision
        # and plan-following granularity it should match the optimum.
        assert result.max_weighted_flow <= offline * 1.05 + 1e-6

    def test_replanning_happens_on_every_arrival(self, tiny_instance):
        scheduler = OnlineOfflineAdaptationScheduler()
        simulate(tiny_instance, scheduler)
        assert scheduler.replanning_count >= tiny_instance.num_jobs

    def test_schedule_is_valid_on_restricted_platform(self):
        instance = random_restricted_instance(8, 3, seed=11, num_databanks=3, replication=0.5)
        scheduler = OnlineOfflineAdaptationScheduler()
        result = simulate(instance, scheduler)
        result.schedule.validate()

    def test_preemptive_variant_runs(self, tiny_instance):
        scheduler = OnlineOfflineAdaptationScheduler(preemptive=True)
        result = simulate(tiny_instance, scheduler)
        # The preemptive plan never runs a job on two machines at once, so the
        # executed schedule must also satisfy the stricter validation.
        result.schedule.divisible = False
        result.schedule.validate()


class TestAgainstMCT:
    """The paper's Section 5 claim, at unit-test scale."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_online_adaptation_not_worse_than_mct(self, seed):
        instance = random_restricted_instance(
            10, 4, seed=seed, num_databanks=3, replication=0.6, stretch_weights=True
        )
        online = simulate(instance, OnlineOfflineAdaptationScheduler())
        mct = simulate(instance, MCTScheduler())
        online.schedule.validate()
        mct.schedule.validate()
        assert online.max_weighted_flow <= mct.max_weighted_flow * 1.05 + 1e-6

    def test_online_adaptation_dominated_by_offline_lower_bound(self, tiny_instance):
        online = simulate(tiny_instance, OnlineOfflineAdaptationScheduler())
        offline = minimize_max_weighted_flow(tiny_instance).objective
        assert online.max_weighted_flow >= offline - 1e-6


class TestRevisedBackend:
    @pytest.mark.parametrize(
        "label, expected",
        [
            (
                "unrelated-0",
                "e8d5329b458a17cbf8a96b856e36f1d1bf605884c8cbdf9fa18f351e22ea6d3d",
            ),
            (
                "unrelated-1",
                "02d9e75fc8382e477a7c8fd003a6945aa585987449ceb640de5e999101fdde42",
            ),
            (
                "unrelated-2",
                "4a43321c3ea6aa23ea5b4e4b1c771d54b44788181519fc77b0a615c690040e69",
            ),
            (
                "unrelated-3",
                "878f56cdf0bf8fd54ec6d196a81b45452b8d6ce71e4ceb51d30aaf2d6c057516",
            ),
            (
                "small-cluster-3",
                "92cca28d02258ffb919003162d9dc5c84ee450e1588647a8aeeaaced22813c68",
            ),
        ],
    )
    def test_replanning_fingerprint_is_pinned(self, label, expected):
        # Pins the revised simplex's pivots, not only its verdicts: the
        # witness pieces and the summed dual/primal iteration counts of a
        # whole online-offline run must not move under a refactor of the
        # solver internals.
        if label.startswith("unrelated-"):
            seed = int(label.rsplit("-", 1)[1])
            instance = random_unrelated_instance(10, 3, seed=seed, cost_range=(2, 12))
        else:
            instance = make_scenario("small-cluster", 3)
        assert _replanning_fingerprint(instance) == expected

    def test_replicated_portal_seed_2_completes(self):
        # This run re-solves programs that went through the revised simplex's
        # two-phase cold start; keeping such a program alive let the next
        # rhs-only dual re-solve pivot an artificial column into the basis
        # (IndexError in the dual simplex).
        from repro.heuristics import make_scheduler
        from repro.workload import make_scenario

        instance = make_scenario("replicated-portal", seed=2)
        result = simulate(instance, make_scheduler("online-offline:backend=revised"))
        result.schedule.validate()
        assert len(result.completion_times) == instance.num_jobs
