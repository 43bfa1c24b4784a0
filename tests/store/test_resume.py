"""Acceptance tests: resumable campaigns through the experiment store.

The PR-3 acceptance criterion: a campaign run with ``store=`` that is killed
partway and re-run with ``resume=True`` completes by computing only the
missing cells — verified here by the dispatcher's probe / LP-solve /
simulation counters — and ``diff_runs`` between two runs is deterministic.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    CampaignStats,
    WorkloadSpec,
    run_scenario_campaign,
    stream_campaign,
)
from repro.exceptions import WorkloadError
from repro.store import ExperimentStore, diff_runs
from repro.workload import scenario_grid

SCENARIOS = ("unrelated-stress", "bursty-batch")
POLICIES = ("mct", "fifo")


def _specs(seeds_per_scenario: int = 2):
    grid = scenario_grid(SCENARIOS, base_seed=11, seeds_per_scenario=seeds_per_scenario)
    return [WorkloadSpec.from_scenario(spec) for spec in grid]


@pytest.fixture(scope="module")
def reference_records():
    return list(stream_campaign(_specs(), POLICIES))


class TestResumeAfterKill:
    def test_killed_sweep_resumes_computing_only_missing_cells(
        self, tmp_path, reference_records
    ):
        path = tmp_path / "campaign.sqlite"
        specs = _specs()

        # "Kill" the sweep partway: consume 5 of 12 records, abandon the
        # stream.  The writer commits batches incrementally, so the consumed
        # records are durable.
        killed_stats = CampaignStats()
        stream = stream_campaign(
            specs, POLICIES, store=path, stats=killed_stats, run_label="killed"
        )
        partial = [next(stream) for _ in range(5)]
        stream.close()
        assert partial == reference_records[:5]

        with ExperimentStore(path) as store:
            killed_run = store.runs()[0]
            assert not killed_run.completed
            assert store.num_records() == 5

        # Resume: identical records, and only the 7 missing cells computed.
        resumed_stats = CampaignStats()
        resumed = list(
            stream_campaign(
                specs,
                POLICIES,
                store=path,
                resume=True,
                stats=resumed_stats,
                run_label="resumed",
            )
        )
        assert resumed == reference_records
        assert resumed_stats.resumed_records == 5
        assert resumed_stats.computed_records == 7
        # Probe/solve economy: workloads 0 and 1 have their off-line cells
        # stored (the optimum is pinned from the store), so only the two
        # untouched workloads solve an LP or build a probe.
        assert resumed_stats.offline_solves == 2
        assert resumed_stats.probe_constructions == 2

        # A third run resumes everything: zero compute, full skip rate.
        final_stats = CampaignStats()
        final = list(
            stream_campaign(
                specs,
                POLICIES,
                store=path,
                resume=True,
                stats=final_stats,
                run_label="full-skip",
            )
        )
        assert final == reference_records
        assert final_stats.computed_records == 0
        assert final_stats.offline_solves == 0
        assert final_stats.probe_constructions == 0
        assert final_stats.resume_skip_rate == 1.0

    def test_parallel_resume_matches_sequential(self, tmp_path, reference_records):
        path = tmp_path / "parallel.sqlite"
        specs = _specs()
        # Seed the store with the first policy only (a re-parameterised sweep).
        run_scenario_campaign(
            SCENARIOS,
            POLICIES[:1],
            base_seed=11,
            seeds_per_scenario=2,
            store=path,
            run_label="narrow",
        )
        topped = run_scenario_campaign(
            SCENARIOS,
            POLICIES,
            base_seed=11,
            seeds_per_scenario=2,
            store=path,
            resume=True,
            max_workers=2,
            run_label="wide",
        )
        assert topped.records == reference_records
        # Only the fifo cells are new; optima come pinned from the store.
        assert topped.stats.computed_records == 4
        assert topped.stats.offline_solves == 0
        assert topped.stats.probe_constructions == 0

    def test_resume_needs_a_store(self):
        with pytest.raises(WorkloadError):
            list(stream_campaign(_specs(), POLICIES, resume=True))


class TestStoreSinkSemantics:
    def test_store_path_and_open_store_are_equivalent(self, tmp_path, reference_records):
        by_path = tmp_path / "by-path.sqlite"
        run_scenario_campaign(
            SCENARIOS, POLICIES, base_seed=11, seeds_per_scenario=2, store=by_path
        )
        with ExperimentStore(tmp_path / "by-handle.sqlite") as handle:
            run_scenario_campaign(
                SCENARIOS, POLICIES, base_seed=11, seeds_per_scenario=2, store=handle
            )
            handle_records = handle.run_records("latest")
        with ExperimentStore(by_path, create=False) as store:
            path_records = store.run_records("latest")
        assert [r.digest for r in path_records] == [r.digest for r in handle_records]
        assert [r.to_campaign_record() for r in path_records] == reference_records

    def test_offline_objective_is_persisted_for_exact_pinning(self, tmp_path):
        path = tmp_path / "objective.sqlite"
        run_scenario_campaign(
            SCENARIOS, POLICIES, base_seed=11, seeds_per_scenario=2, store=path
        )
        with ExperimentStore(path, create=False) as store:
            for record in store.run_records("latest"):
                if record.policy == "offline-optimal":
                    assert record.objective is not None and record.objective > 0
                else:
                    assert record.objective is None

    def test_cross_run_diff_between_campaign_runs_is_deterministic(self, tmp_path):
        path = tmp_path / "diff.sqlite"
        for label in ("first", "second"):
            run_scenario_campaign(
                SCENARIOS,
                POLICIES,
                base_seed=11,
                seeds_per_scenario=2,
                store=path,
                resume=label == "second",
                run_label=label,
            )
        with ExperimentStore(path, create=False) as store:
            diff = diff_runs(store, "first", "second")
            assert diff.is_clean()  # identical cells, byte-identical metrics
            assert diff == diff_runs(store, "first", "second")
            policies = {delta.policy for delta in diff.deltas}
            assert policies == {"offline-optimal", "mct", "fifo"}


@pytest.mark.tier2
class TestLargeRoundTrip:
    """Slow (tier-2) round-trip: a larger sweep persisted, resumed and diffed.

    Deselected from the tier-1 gate (``-m "not tier2"``); run with
    ``-m tier2`` or by dropping the filter.
    """

    def test_multi_seed_sweep_roundtrip(self, tmp_path):
        path = tmp_path / "large.sqlite"
        kwargs = dict(
            policies=("mct", "fifo", "srpt", "greedy-weighted-flow"),
            base_seed=7,
            seeds_per_scenario=4,
        )
        cold = run_scenario_campaign(SCENARIOS, store=path, run_label="cold", **kwargs)
        warm = run_scenario_campaign(
            SCENARIOS, store=path, resume=True, run_label="warm", **kwargs
        )
        assert warm.records == cold.records
        assert warm.stats.resume_skip_rate == 1.0
        assert warm.stats.offline_solves == 0
        with ExperimentStore(path, create=False) as store:
            assert store.num_records() == len(cold.records)
            assert diff_runs(store, "cold", "warm").is_clean()


class TestBatchedResumePlanning:
    """ROADMAP PR 3 follow-up: one IN query per planning round, not per item."""

    def _count_lookups(self, monkeypatch):
        calls = []
        original = ExperimentStore.lookup

        def counting(self, digests):
            wanted = list(digests)
            calls.append(len(wanted))
            return original(self, wanted)

        monkeypatch.setattr(ExperimentStore, "lookup", counting)
        return calls

    def test_sequential_resume_issues_one_query_per_round(
        self, tmp_path, monkeypatch, reference_records
    ):
        path = tmp_path / "batched.sqlite"
        specs = _specs()
        list(stream_campaign(specs, POLICIES, store=path, run_label="seed"))

        calls = self._count_lookups(monkeypatch)
        resumed = list(
            stream_campaign(specs, POLICIES, store=path, resume=True, run_label="again")
        )
        assert resumed == reference_records
        # 4 workloads x 2 chunks = 8 items, all planned in a single round:
        # exactly one lookup, covering every cell digest of the sweep.
        assert len(calls) == 1
        assert calls[0] >= len(reference_records)

    def test_parallel_resume_issues_fewer_queries_than_items(
        self, tmp_path, monkeypatch, reference_records
    ):
        path = tmp_path / "batched-parallel.sqlite"
        specs = _specs()
        list(stream_campaign(specs, POLICIES, store=path, run_label="seed"))

        calls = self._count_lookups(monkeypatch)
        stats = CampaignStats()
        resumed = list(
            stream_campaign(
                specs,
                POLICIES,
                store=path,
                resume=True,
                max_workers=2,
                stats=stats,
                run_label="again",
            )
        )
        assert resumed == reference_records
        # 8 items; planning rounds are bounded by the admission loop, never
        # one query per item.
        assert 1 <= len(calls) < stats.items + len(reference_records)
        assert len(calls) <= 8


class TestParameterisedVariantResume:
    """PR 4 acceptance: variant cells digest distinctly and resume fully."""

    VARIANTS = ("deadline-driven", "deadline-driven:lp_targets=true")

    def test_variant_sweep_stores_distinct_cells_and_resumes_fully(self, tmp_path):
        path = tmp_path / "variants.sqlite"
        cold_stats = CampaignStats()
        cold = list(
            stream_campaign(
                _specs(), self.VARIANTS, store=path, stats=cold_stats, run_label="cold"
            )
        )
        assert {record.policy for record in cold} == {
            "offline-optimal",
            "deadline-driven",
            "deadline-driven:lp_targets=true",
        }
        with ExperimentStore(path) as store:
            digests = [record.digest for record in store.run_records("cold")]
            assert len(digests) == len(set(digests)) == len(cold)

        warm_stats = CampaignStats()
        warm = list(
            stream_campaign(
                _specs(),
                self.VARIANTS,
                store=path,
                resume=True,
                stats=warm_stats,
                run_label="warm",
            )
        )
        assert warm == cold
        assert warm_stats.resume_skip_rate == 1.0
        assert warm_stats.computed_records == 0
        assert warm_stats.offline_solves == 0

    def test_explicit_default_params_share_the_bare_name_cell(self, tmp_path):
        path = tmp_path / "defaults.sqlite"
        list(stream_campaign(_specs(1), ("deadline-driven",), store=path, run_label="bare"))
        stats = CampaignStats()
        resumed = list(
            stream_campaign(
                _specs(1),
                ("deadline-driven:lp_targets=false",),  # == the default
                store=path,
                resume=True,
                stats=stats,
                run_label="explicit",
            )
        )
        assert stats.resume_skip_rate == 1.0
        assert {record.policy for record in resumed} == {
            "offline-optimal",
            "deadline-driven",
        }

    def test_rejected_value_fails_before_any_cell_is_stored(self, tmp_path):
        path = tmp_path / "rejected.sqlite"
        with pytest.raises(ValueError, match="period must be positive"):
            list(stream_campaign(_specs(1), ("mct", "online-offline:period=-1"), store=path))
        assert not path.exists()


class TestResumeRelabelling:
    def test_resumed_records_adopt_the_current_sweep_labels(self, tmp_path):
        from repro.analysis import run_policy_campaign
        from repro.workload import random_restricted_instance

        instance = random_restricted_instance(5, 2, seed=0, num_databanks=2)
        path = tmp_path / "labels.sqlite"
        first = run_policy_campaign([instance], ("srpt",), labels=["A"], store=path)
        assert all(record.workload == "A" for record in first.records)
        second = run_policy_campaign(
            [instance], ("srpt",), labels=["B"], store=path, resume=True
        )
        # Same content digests, fully resumed — but labelled for this sweep.
        assert second.stats.computed_records == 0
        assert all(record.workload == "B" for record in second.records)
