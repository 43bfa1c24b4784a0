"""Tests for the on-line adaptation of the off-line algorithm (Section 5)."""

from __future__ import annotations

import math

import pytest

from repro.core import maxflow, minimize_max_weighted_flow
from repro.exceptions import InfeasibleProblemError
from repro.heuristics import MCTScheduler, OnlineOfflineAdaptationScheduler, online_offline
from repro.simulation import simulate
from repro.workload import random_restricted_instance, random_unrelated_instance


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
        # information as the off-line solver; up to LP tolerance and
        # plan-following granularity it should match the optimum.
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


class TestSearchEconomy:
    """Every LP of a replanning is a range LP; a probe that finds one ends the search."""

    @staticmethod
    def _replans(instance, preemptive):
        """Each replanning's milestone count ``k``, LP solves, probe outcomes and
        final range LPs, and the simulation result."""
        events = []
        boundaries = OnlineOfflineAdaptationScheduler._boundaries
        solve = maxflow._scipy_solve_form
        probe = online_offline.probe_range
        search = online_offline.minimize_over_range

        def recorded_boundaries(*args):
            values = boundaries(*args)
            events.append({"k": len(values) - 2, "solves": 0, "probes": [], "final": 0})
            return values

        def counted_solve(*args, **kwargs):
            events[-1]["solves"] += 1
            return solve(*args, **kwargs)

        def recorded_probe(*args):
            outcome = probe(*args)
            events[-1]["probes"].append(outcome)
            return outcome

        def recorded_search(*args):
            events[-1]["final"] += 1
            return search(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                OnlineOfflineAdaptationScheduler, "_boundaries", staticmethod(recorded_boundaries)
            )
            patch.setattr(maxflow, "_scipy_solve_form", counted_solve)
            patch.setattr(online_offline, "probe_range", recorded_probe)
            patch.setattr(online_offline, "minimize_over_range", recorded_search)
            result = simulate(instance, OnlineOfflineAdaptationScheduler(preemptive=preemptive))
        result.schedule.validate()
        return events, result

    @pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_each_replanning_solves_at_most_log_k_plus_one_lps(self, seed, preemptive):
        instance = random_unrelated_instance(
            16, 3, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=seed
        )
        events, _ = self._replans(instance, preemptive)
        assert any(event["probes"] for event in events)
        assert any(probe.pinned for event in events for probe in event["probes"])
        for event in events:
            probes = event["probes"]
            assert len(probes) <= math.ceil(math.log2(event["k"] + 1)), event
            assert event["solves"] <= math.ceil(math.log2(event["k"] + 1)) + 1, event
            if any(probe.feasible for probe in probes):
                # A pinned probe, or the last feasible one, is the plan.
                assert event["final"] == 0, event
            else:
                assert event["final"] == 1, event
            assert not any(probe.pinned for probe in probes[:-1]), event

    def test_fewer_lps_than_the_verdict_search_and_the_same_stretch(self):
        # At n = 16, seed 7 the search it replaced (verdict probes, then one
        # range LP per replanning) solved 27 + 31 = 58 LPs and planned a max
        # stretch of 5.479420764823408.
        instance = random_unrelated_instance(
            16, 3, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=7
        )
        events, result = self._replans(instance, preemptive=False)
        assert sum(event["solves"] for event in events) < 58
        assert result.max_stretch == 5.479420764823408


class TestRevisedBackend:
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


class TestConfigurationAndBookkeeping:
    def test_non_positive_period_is_rejected(self):
        with pytest.raises(ValueError, match="period must be positive"):
            OnlineOfflineAdaptationScheduler(period=0.0)

    def test_unknown_backend_is_rejected_on_the_from_scratch_path(self):
        with pytest.raises(ValueError, match="unknown LP backend 'highs'"):
            OnlineOfflineAdaptationScheduler(backend="highs", parametric=False)

    def test_compaction_remaps_the_plan_and_keeps_it(self, tiny_instance):
        scheduler = OnlineOfflineAdaptationScheduler()
        scheduler._plan = [(0, 2, 0.0, 1.0), (1, 0, 0.0, 2.0)]
        scheduler._plan_active = frozenset({0, 2})
        scheduler.compact(tiny_instance, {0: 0, 2: 1})
        assert scheduler._plan == [(0, 1, 0.0, 1.0), (1, 0, 0.0, 2.0)]
        assert scheduler._plan_active == frozenset({0, 1})

    def test_compaction_that_drops_a_planned_job_forces_a_replan(self, tiny_instance):
        scheduler = OnlineOfflineAdaptationScheduler()
        scheduler._plan = [(0, 1, 0.0, 1.0), (1, 2, 0.0, 2.0)]
        scheduler._plan_active = frozenset({1, 2})
        scheduler.compact(tiny_instance, {2: 0})
        assert scheduler._plan == [(1, 0, 0.0, 2.0)]
        assert scheduler._plan_active is None

    def test_without_a_plan_it_falls_back_to_exclusive_first_fit(
        self, tiny_instance, monkeypatch
    ):
        def infeasible(alloc, low, high):
            raise InfeasibleProblemError(f"milestone range ({low}, {high}] is infeasible")

        monkeypatch.setattr(online_offline, "minimize_over_range", infeasible)
        result = simulate(tiny_instance, OnlineOfflineAdaptationScheduler())
        result.schedule.validate()
        assert len(result.completion_times) == tiny_instance.num_jobs
        # Job 0 is alone at time 0 and takes the first machine it may use.
        first = min(result.schedule.pieces, key=lambda piece: piece.start)
        assert (first.job_index, first.machine_index, first.start) == (0, 0, 0.0)
