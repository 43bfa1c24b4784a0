"""Unit tests for the experiment-campaign runner."""

from __future__ import annotations

import pytest

from repro.analysis import run_policy_campaign, run_scenario_campaign
from repro.exceptions import WorkloadError
from repro.workload import random_restricted_instance


@pytest.fixture(scope="module")
def campaign():
    instances = [
        random_restricted_instance(6, 3, seed=seed, num_databanks=2, stretch_weights=True)
        for seed in (0, 1)
    ]
    return run_policy_campaign(instances, policies=("mct", "fifo"), labels=("w0", "w1"))


class TestCampaign:
    def test_record_counts(self, campaign):
        # 2 workloads x (offline + 2 policies) = 6 records.
        assert len(campaign.records) == 6
        assert set(campaign.policies()) == {"offline-optimal", "mct", "fifo"}
        assert campaign.policies()[0] == "offline-optimal"

    def test_normalisation_against_offline_optimum(self, campaign):
        for record in campaign.records:
            if record.policy == "offline-optimal":
                assert record.normalised == pytest.approx(1.0)
            else:
                assert record.normalised >= 1.0 - 1e-6

    def test_mean_degradation_and_ranking(self, campaign):
        ranking = campaign.ranking()
        assert set(ranking) == {"mct", "fifo"}
        degradations = [campaign.mean_degradation(policy) for policy in ranking]
        assert degradations == sorted(degradations)

    def test_table_rendering(self, campaign):
        table = campaign.as_table()
        assert "offline-optimal" in table and "mct" in table

    def test_records_for_unknown_policy(self, campaign):
        with pytest.raises(WorkloadError):
            campaign.mean_degradation("nope")

    def test_input_validation(self):
        with pytest.raises(WorkloadError):
            run_policy_campaign([], policies=("mct",))
        instance = random_restricted_instance(4, 2, seed=3)
        with pytest.raises(WorkloadError):
            run_policy_campaign([instance], policies=("mct",), labels=("a", "b"))


class TestParallelCampaign:
    def test_parallel_records_match_sequential(self):
        instances = [
            random_restricted_instance(5, 2, seed=seed, num_databanks=2, stretch_weights=True)
            for seed in (0, 1, 2)
        ]
        sequential = run_policy_campaign(instances, policies=("mct", "fifo"))
        parallel = run_policy_campaign(instances, policies=("mct", "fifo"), max_workers=2)
        assert parallel.records == sequential.records

    def test_zero_workers_means_one_per_cpu(self):
        instances = [random_restricted_instance(4, 2, seed=seed) for seed in (0, 1)]
        result = run_policy_campaign(instances, policies=("mct",), max_workers=0)
        assert len(result.records) == 4  # 2 workloads x (offline + mct)


class TestStreamingDispatcher:
    def test_stream_yields_records_incrementally_in_order(self):
        from repro.analysis import WorkloadSpec, stream_campaign

        instances = [
            random_restricted_instance(5, 2, seed=seed, num_databanks=2)
            for seed in (0, 1)
        ]
        specs = [
            WorkloadSpec.from_instance(f"w{index}", instance)
            for index, instance in enumerate(instances)
        ]
        streamed = []
        for record in stream_campaign(specs, ("mct", "fifo")):
            streamed.append(record)
        reference = run_policy_campaign(
            instances, policies=("mct", "fifo"), labels=("w0", "w1")
        ).records
        assert streamed == reference
        # Workload-major order: offline first, then the policies in order.
        assert [r.policy for r in streamed[:3]] == ["offline-optimal", "mct", "fifo"]

    def test_chunk_sizes_do_not_change_records(self):
        instances = [
            random_restricted_instance(5, 2, seed=seed, num_databanks=2)
            for seed in (0, 1, 2)
        ]
        reference = run_policy_campaign(instances, policies=("mct", "fifo", "spt"))
        for chunk_size in (1, 2, 3, 99):
            for max_workers in (None, 2):
                result = run_policy_campaign(
                    instances,
                    policies=("mct", "fifo", "spt"),
                    max_workers=max_workers,
                    chunk_size=chunk_size,
                )
                assert result.records == reference.records, (chunk_size, max_workers)

    def test_invalid_dispatch_parameters_are_rejected(self):
        instance = random_restricted_instance(4, 2, seed=3)
        with pytest.raises(WorkloadError):
            run_policy_campaign([instance], policies=("mct",), chunk_size=0)
        with pytest.raises(WorkloadError):
            run_policy_campaign(
                [instance], policies=("mct",), max_workers=2, max_inflight=0
            )

    def test_stats_record_the_throughput_trajectory(self):
        instances = [
            random_restricted_instance(5, 2, seed=seed, num_databanks=2)
            for seed in (0, 1, 2)
        ]
        sequential = run_policy_campaign(instances, policies=("mct", "fifo"))
        stats = sequential.stats
        assert stats is not None
        assert stats.workloads == 3
        assert stats.records == len(sequential.records) == 9
        # One shared probe per workload: strictly fewer constructions than
        # workloads x policies.
        assert stats.probe_constructions == 3 < 3 * 3
        assert stats.elapsed_seconds > 0
        assert stats.scenarios_per_second > 0
        assert stats.peak_in_flight == 0  # in-process run
        as_dict = stats.as_dict()
        assert as_dict["records"] == 9

    def test_parallel_in_flight_is_bounded(self):
        instances = [
            random_restricted_instance(4, 2, seed=seed) for seed in range(4)
        ]
        result = run_policy_campaign(
            instances,
            policies=("mct", "fifo"),
            max_workers=2,
            max_inflight=3,
        )
        assert result.stats is not None
        assert 1 <= result.stats.peak_in_flight <= 3
        assert result.stats.probe_constructions < 4 * 3

    def test_lazy_workload_spec_materialises_scenarios_in_place(self):
        from repro.analysis import WorkloadSpec

        spec = WorkloadSpec(label="lazy", scenario="unrelated-stress", seed=4)
        instance = spec.materialise()
        assert instance.num_jobs > 0
        with pytest.raises(WorkloadError):
            WorkloadSpec(label="broken").materialise()


class TestScenarioCampaign:
    def test_scenario_campaign_runs(self):
        result = run_scenario_campaign(
            ["unrelated-stress"], policies=("mct",), seeds=(7,)
        )
        assert {record.policy for record in result.records} == {"offline-optimal", "mct"}
        assert all(record.workload == "unrelated-stress" for record in result.records)

    def test_base_seed_campaign_is_reproducible_across_dispatch_modes(self):
        """Spawned seeding + streaming dispatch: records are identical no
        matter the worker count or chunking."""
        kwargs = dict(
            policies=("mct", "fifo"),
            base_seed=21,
            seeds_per_scenario=2,
        )
        sequential = run_scenario_campaign(["unrelated-stress", "bursty-batch"], **kwargs)
        for max_workers, chunk_size in ((2, 1), (2, 2), (0, 1)):
            parallel = run_scenario_campaign(
                ["unrelated-stress", "bursty-batch"],
                max_workers=max_workers,
                chunk_size=chunk_size,
                **kwargs,
            )
            assert parallel.records == sequential.records, (max_workers, chunk_size)

    def test_scenario_campaign_rejects_seed_conflicts(self):
        with pytest.raises(WorkloadError):
            run_scenario_campaign(
                ["unrelated-stress"], policies=("mct",), seeds=(1, 2), base_seed=3
            )


class TestPinnedOptimumShipping:
    def test_offline_solved_exactly_once_per_workload_at_any_worker_count(self):
        """The parent ships each workload's pinned optimum into later items,
        so the LP search runs once per workload regardless of dispatch."""
        kwargs = dict(policies=("mct", "fifo", "spt"), base_seed=13, seeds_per_scenario=2)
        sequential = run_scenario_campaign(["unrelated-stress", "bursty-batch"], **kwargs)
        assert sequential.stats.offline_solves == 4
        assert sequential.stats.probe_constructions == 4
        for max_workers, chunk_size in ((2, 1), (3, 1), (2, 2)):
            parallel = run_scenario_campaign(
                ["unrelated-stress", "bursty-batch"],
                max_workers=max_workers,
                chunk_size=chunk_size,
                **kwargs,
            )
            assert parallel.records == sequential.records
            assert parallel.stats.offline_solves == 4, (max_workers, chunk_size)
            assert parallel.stats.probe_constructions == 4, (max_workers, chunk_size)

    def test_stats_expose_the_new_counters(self):
        from repro.workload import random_restricted_instance as _rri

        result = run_policy_campaign(
            [_rri(5, 2, seed=0, num_databanks=2)], policies=("mct",)
        )
        stats = result.stats.as_dict()
        assert stats["offline_solves"] == 1
        assert stats["computed_records"] == 2
        assert stats["resumed_records"] == 0
        assert stats["resume_skip_rate"] == 0.0
        assert stats["store_run_id"] is None

    def test_tight_inflight_cap_with_gated_items_makes_progress(self):
        """Regression guard: released (gated) items must not be starved by
        aggregated-but-unemitted records when max_inflight is tiny."""
        from repro.workload import random_restricted_instance as _rri

        instances = [_rri(4, 2, seed=seed) for seed in range(4)]
        reference = run_policy_campaign(instances, policies=("mct", "fifo"))
        for max_inflight in (1, 2, 3):
            result = run_policy_campaign(
                instances,
                policies=("mct", "fifo"),
                max_workers=2,
                max_inflight=max_inflight,
            )
            assert result.records == reference.records, max_inflight
            assert result.stats.peak_in_flight <= max_inflight
            assert result.stats.offline_solves == 4


class TestExplicitOfflinePolicy:
    def test_offline_optimal_can_be_requested_as_a_policy(self):
        result = run_scenario_campaign(
            ["unrelated-stress"], policies=("offline-optimal",),
            include_offline=False, seeds=(1,),
        )
        assert [record.policy for record in result.records] == ["offline-optimal"]
        assert result.records[0].normalised == pytest.approx(1.0)

    def test_offline_optimal_mixed_with_online_policies(self):
        result = run_scenario_campaign(
            ["unrelated-stress"], policies=("offline-optimal", "srpt"), seeds=(1, 2),
        )
        # Per workload: the synthetic offline record, the requested
        # offline-optimal cell, then srpt.
        assert [record.policy for record in result.records[:3]] == [
            "offline-optimal", "offline-optimal", "srpt",
        ]
        assert len(result.records) == 6

    def test_explicit_offline_cell_reuses_the_context_outcome(self):
        # One LP search per workload even when offline-optimal is also an
        # explicit policy: the cell reuses the shared workload context.
        result = run_scenario_campaign(
            ["unrelated-stress"], policies=("mct", "offline-optimal"), seeds=(1,),
        )
        assert result.stats.offline_solves == 1


    def test_preemptive_offline_variant_solves_without_the_shared_probe(self):
        instance = random_restricted_instance(5, 2, seed=3, num_databanks=2)
        result = run_policy_campaign([instance], policies=("offline-optimal:preemptive=true",))
        divisible, preemptive = result.records
        assert divisible.policy == "offline-optimal"
        assert preemptive.policy.startswith("offline-optimal")
        # The preemptive optimum is a tighter model's optimum, never below
        # the divisible one the shared probe holds.
        assert preemptive.max_weighted_flow >= divisible.max_weighted_flow - 1e-6


class TestSharedProbeCompatibility:
    def _probe(self):
        from repro.core import FeasibilityProbe

        return FeasibilityProbe(random_restricted_instance(3, 2, seed=1))

    def test_online_policies_get_the_shared_probe(self):
        from repro.analysis.campaign import _compatible_probe
        from repro.heuristics import make_policy

        probe = self._probe()
        assert _compatible_probe(probe, make_policy("mct")) is probe
        assert _compatible_probe(None, make_policy("offline-optimal")) is None

    def test_offline_variants_with_another_model_solve_standalone(self):
        from repro.analysis.campaign import _compatible_probe
        from repro.heuristics import make_policy

        probe = self._probe()
        assert _compatible_probe(probe, make_policy("offline-optimal")) is probe
        assert _compatible_probe(probe, make_policy("offline-optimal:preemptive=true")) is None

    def test_an_unknown_policy_name_still_builds_the_probe(self):
        from repro.analysis.campaign import WorkloadSpec, _CampaignItem, _item_needs_probe

        spec = WorkloadSpec.from_instance("w", random_restricted_instance(3, 2, seed=1))
        item = _CampaignItem(0, 0, spec, ("no-such-policy",), emit_offline=False)
        assert _item_needs_probe(item)
        assert not _item_needs_probe(_CampaignItem(0, 0, spec, ("mct",), emit_offline=False))


class TestFlightRecorder:
    """ISSUE 10: run journaling and cross-process metrics aggregation."""

    def _instances(self):
        return [random_restricted_instance(4, 2, seed=seed) for seed in range(2)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_parallel_metrics_snapshot_is_byte_identical_to_sequential(self, workers):
        import json

        from repro.obs import collecting
        from tests.reference.snapshots import snapshot_bytes

        instances = self._instances()
        with collecting() as recorder:
            sequential = run_policy_campaign(instances, policies=("mct", "fifo"))
        reference = snapshot_bytes(recorder.snapshot())
        with collecting() as recorder:
            parallel = run_policy_campaign(
                instances, policies=("mct", "fifo"), max_workers=workers
            )
        assert parallel.records == sequential.records
        assert snapshot_bytes(recorder.snapshot()) == reference
        # The projection is not vacuous: the simulation counters are in it.
        counters = json.loads(reference.decode("utf-8"))["counters"]
        assert counters["campaign.items"] >= 1.0
        assert counters["kernel.runs"] >= 1.0

    def test_journal_does_not_change_records(self, tmp_path):
        instances = self._instances()
        plain = run_policy_campaign(instances, policies=("mct",))
        journalled = run_policy_campaign(
            instances, policies=("mct",), journal=tmp_path / "run.jsonl"
        )
        assert journalled.records == plain.records

    def test_journal_records_the_run_lifecycle(self, tmp_path):
        from repro.obs import analyse_journal, read_journal

        path = tmp_path / "run.jsonl"
        result = run_policy_campaign(
            self._instances(), policies=("mct", "fifo"), journal=path
        )
        view = read_journal(path)
        assert view.truncated == 0
        names = [event["event"] for event in view]
        assert names[0] == "run-started"
        assert names[-1] == "run-finished"
        assert "cell-dispatched" in names and "cell-completed" in names
        status = analyse_journal(view.events)
        assert status.kind == "campaign"
        assert status.status == "completed"
        assert status.total_cells == len(result.records)
        assert status.done == len(result.records)
        assert status.records == len(result.records)

    def test_parallel_journal_carries_worker_heartbeats(self, tmp_path):
        from repro.obs import analyse_journal, read_journal

        path = tmp_path / "run.jsonl"
        run_policy_campaign(
            self._instances(),
            policies=("mct", "fifo"),
            max_workers=2,
            journal=path,
        )
        view = read_journal(path)
        heartbeats = [e for e in view if e["event"] == "worker-heartbeat"]
        assert heartbeats
        assert all(str(e["worker"]).startswith("p") for e in heartbeats)
        status = analyse_journal(view.events)
        assert status.workers
        assert sum(w["items"] for w in status.workers.values()) == len(heartbeats)

    def test_resume_appends_a_new_run_with_skips(self, tmp_path):
        from repro.obs import analyse_journal, read_journal

        path = tmp_path / "run.jsonl"
        store = tmp_path / "store.sqlite"
        instances = self._instances()
        cold = run_policy_campaign(
            instances, policies=("mct",), store=store, journal=path, run_label="cold"
        )
        run_policy_campaign(
            instances,
            policies=("mct",),
            store=store,
            resume=True,
            journal=path,
            run_label="warm",
        )
        view = read_journal(path)
        assert view.truncated == 0
        runs = view.runs()
        assert len(runs) == 2
        warm_events = [e for e in view if e["run"] == runs[1]]
        assert any(e["event"] == "cell-skipped" for e in warm_events)
        assert not any(e["event"] == "cell-completed" for e in warm_events)
        # analyse_journal defaults to the newest run of a multi-run file.
        status = analyse_journal(view.events)
        assert status.completed == 0
        assert status.skipped == len(cold.records)
