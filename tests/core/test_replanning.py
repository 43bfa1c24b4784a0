"""Unit tests for the parametric replanning probe (PR 4 tentpole core)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import Instance, Job, ReplanProbe, check_deadline_feasibility
from repro.core import replanning
from repro.core.replanning import remaining_subinstance
from repro.exceptions import InvalidInstanceError
from repro.workload import random_restricted_instance, random_unrelated_instance


def _sub_and_deadlines(instance, time, active, remaining, objective):
    sub, ordered = remaining_subinstance(instance, time, active, remaining)
    deadlines = [
        instance.jobs[j].release_date + objective / instance.jobs[j].weight
        for j in ordered
    ]
    return sub, deadlines


class TestIdentityWithFromScratch:
    """The probe's results — including witnesses — equal the from-scratch path."""

    @pytest.mark.parametrize("preemptive", [False, True])
    def test_answers_and_witnesses_match_check_deadline_feasibility(self, preemptive):
        probe = ReplanProbe(preemptive=preemptive)
        rng = random.Random(1)
        for seed in range(3):
            instance = random_unrelated_instance(6, 3, seed=seed)
            for time in (0.0, 2.0):
                active = list(range(4))
                remaining = [rng.uniform(0.1, 1.0) for _ in active]
                for objective in (4.0, 15.0, 60.0):
                    sub, deadlines = _sub_and_deadlines(
                        instance, time, active, remaining, objective
                    )
                    if any(d < time for d in deadlines):
                        continue
                    scratch = check_deadline_feasibility(
                        sub, deadlines, preemptive=preemptive, build_schedule=True
                    )
                    answer = probe.check(sub, deadlines, build_schedule=True)
                    assert answer.feasible == scratch.feasible
                    assert answer.num_intervals == scratch.num_intervals
                    assert answer.lp_variables == scratch.lp_variables
                    assert answer.lp_constraints == scratch.lp_constraints
                    if scratch.feasible:
                        assert answer.schedule.pieces == scratch.schedule.pieces

    def test_simplex_backend_matches_its_from_scratch_path(self):
        probe = ReplanProbe(backend="revised")
        instance = random_unrelated_instance(4, 2, seed=3)
        sub, deadlines = _sub_and_deadlines(instance, 0.0, [0, 1, 2], [1.0, 0.5, 0.8], 25.0)
        scratch = check_deadline_feasibility(sub, deadlines, backend="revised")
        answer = probe.check(sub, deadlines)
        assert answer.feasible == scratch.feasible
        assert answer.backend == scratch.backend == "simplex-revised"

    def test_restricted_platforms_with_forbidden_pairs(self):
        probe = ReplanProbe()
        instance = random_restricted_instance(8, 3, seed=11, num_databanks=3, replication=0.5)
        for objective in (10.0, 40.0, 200.0):
            sub, deadlines = _sub_and_deadlines(
                instance, 1.0, list(range(5)), [0.9, 0.4, 1.0, 0.6, 0.2], objective
            )
            if any(d < 1.0 for d in deadlines):
                continue
            scratch = check_deadline_feasibility(sub, deadlines)
            answer = probe.check(sub, deadlines)
            assert answer.feasible == scratch.feasible
            if scratch.feasible:
                assert answer.schedule.pieces == scratch.schedule.pieces


class TestStructureCache:
    def test_repeated_structures_build_once(self):
        probe = ReplanProbe()
        instance = random_unrelated_instance(5, 2, seed=0)
        active = [0, 1, 2]
        # Same structure at different times / remaining fractions: the
        # coefficients change, the skeleton does not.
        for time, remaining in ((0.0, [1.0, 1.0, 1.0]), (1.0, [0.7, 0.9, 0.5]),
                                (2.5, [0.4, 0.6, 0.2])):
            sub, deadlines = _sub_and_deadlines(instance, time, active, remaining, 50.0)
            probe.check(sub, deadlines, build_schedule=False)
        assert probe.probes == 3
        assert probe.model_constructions == 1
        assert probe.cache_hits == 2

    def test_lru_cap_bounds_cached_models(self, monkeypatch):
        monkeypatch.setattr(replanning, "_MAX_CACHED_MODELS", 2)
        probe = ReplanProbe()
        instance = random_unrelated_instance(6, 2, seed=1)

        def check(active):
            sub, deadlines = _sub_and_deadlines(
                instance, 0.0, active, [1.0] * len(active), 50.0
            )
            probe.check(sub, deadlines, build_schedule=False)

        # Different active-job counts => different structures.
        for active in ([0, 1, 2, 3], [0, 1, 2], [0, 1], [0]):
            check(active)
            assert len(probe._templates) <= 2
        assert probe.model_constructions == 4
        # The first structure was evicted, so asking it again rebuilds it.
        check([0, 1, 2, 3])
        assert probe.model_constructions == 5

    def test_counters_account_every_probe(self):
        probe = ReplanProbe()
        instance = random_unrelated_instance(4, 2, seed=2)
        sub, deadlines = _sub_and_deadlines(instance, 0.0, [0, 1], [1.0, 1.0], 30.0)
        probe.check(sub, deadlines)
        probe.check(sub, deadlines)
        assert probe.probes == 2
        assert probe.lp_solves == 2  # no memoisation across identical probes
        assert probe.model_constructions == 1


class TestEdgeCases:
    def test_deadline_before_release_is_trivially_infeasible_without_lp(self):
        probe = ReplanProbe()
        jobs = [Job("A", 5.0, weight=1.0)]
        instance = Instance.from_costs(jobs, [[2.0]])
        answer = probe.check(instance, [1.0])
        assert not answer.feasible
        assert probe.lp_solves == 0

    def test_mismatched_deadline_count_rejected(self):
        probe = ReplanProbe()
        instance = random_unrelated_instance(3, 2, seed=0)
        with pytest.raises(InvalidInstanceError):
            probe.check(instance, [1.0])

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError):
            ReplanProbe(backend="no-such-backend")


class TestRemainingSubinstance:
    def test_positions_map_back_to_original_indices(self):
        instance = random_unrelated_instance(5, 2, seed=4)
        sub, ordered = remaining_subinstance(instance, 3.0, [4, 1, 2], [0.5, 1.0, 0.25])
        assert ordered == [1, 2, 4]
        assert sub.num_jobs == 3
        for position, job_index in enumerate(ordered):
            assert sub.jobs[position].name == instance.jobs[job_index].name
            assert sub.jobs[position].release_date == 3.0

    def test_costs_scale_with_remaining_fraction(self):
        jobs = [Job("A", 0.0, weight=1.0)]
        instance = Instance.from_costs(jobs, [[8.0], [4.0]])
        sub, _ = remaining_subinstance(instance, 0.0, [0], [0.5])
        assert sub.cost(0, 0) == pytest.approx(4.0)
        assert sub.cost(1, 0) == pytest.approx(2.0)


class TestRankKeyedCanonicalisation:
    """rank_keyed=True relabels equal-release probes by deadline rank."""

    def _sub(self, seed, num_jobs=6):
        instance = random_unrelated_instance(num_jobs + 2, 3, seed=seed)
        active = list(range(num_jobs))
        remaining = [0.2 + 0.1 * j for j in range(num_jobs)]
        return remaining_subinstance(instance, 5.0, active, remaining)[0]

    def test_feasibility_answers_match_the_plain_probe(self):
        plain = ReplanProbe()
        ranked = ReplanProbe(rank_keyed=True)
        rng = random.Random(3)
        for seed in range(6):
            sub = self._sub(seed)
            for _ in range(4):
                deadlines = [5.0 + rng.uniform(0.5, 60.0) for _ in sub.jobs]
                expected = plain.check(sub, deadlines, build_schedule=False)
                got = ranked.check(sub, deadlines, build_schedule=False)
                assert got.feasible == expected.feasible
                assert got.num_intervals == expected.num_intervals
                assert got.lp_variables == expected.lp_variables
                assert got.lp_constraints == expected.lp_constraints
        assert ranked.rank_canonicalisations > 0
        # Canonicalisation merges rank-equivalent structures: never more
        # skeletons than the raw-structure cache, usually far fewer.
        assert ranked.model_constructions <= plain.model_constructions

    def test_permuted_deadline_orders_share_one_skeleton(self):
        ranked = ReplanProbe(rank_keyed=True)
        sub = self._sub(11, num_jobs=5)
        base = [10.0, 20.0, 30.0, 40.0, 50.0]
        orders = [base, base[::-1], [30.0, 10.0, 50.0, 20.0, 40.0]]
        for deadlines in orders:
            ranked.check(sub, deadlines, build_schedule=False)
        # Same rank *pattern* (5 distinct deadlines, full eligibility):
        # one model serves every permutation.
        assert ranked.model_constructions == 1
        assert ranked.cache_hits == len(orders) - 1

    def test_witness_requests_fall_back_to_the_exact_path(self):
        ranked = ReplanProbe(rank_keyed=True)
        plain = ReplanProbe()
        sub = self._sub(7, num_jobs=4)
        deadlines = [40.0, 10.0, 30.0, 20.0]  # not rank-sorted
        with_witness = ranked.check(sub, deadlines, build_schedule=True)
        reference = plain.check(sub, deadlines, build_schedule=True)
        assert ranked.rank_canonicalisations == 0  # gated off
        assert with_witness.feasible == reference.feasible
        if with_witness.feasible:
            assert with_witness.schedule.pieces == reference.schedule.pieces

    def test_heterogeneous_releases_are_not_canonicalised(self):
        instance = random_unrelated_instance(5, 3, seed=9)  # staggered releases
        ranked = ReplanProbe(rank_keyed=True)
        deadlines = [job.release_date + 50.0 for job in instance.jobs][::-1]
        deadlines.sort()  # any order; releases differ so no relabelling
        ranked.check(instance, deadlines, build_schedule=False)
        assert ranked.rank_canonicalisations == 0


class TestEventScopedRefresh:
    """Repeated checks on one instance object skip the coefficient rewrite."""

    def test_same_instance_bisection_reuses_the_refreshed_matrix(self):
        probe = ReplanProbe()
        instance = random_unrelated_instance(6, 3, seed=4)
        sub, _ = remaining_subinstance(instance, 2.0, [0, 1, 2, 3], [1.0, 0.8, 0.5, 0.3])
        answers = []
        for objective in (5.0, 10.0, 20.0, 40.0, 80.0):
            deadlines = [2.0 + objective / job.weight for job in sub.jobs]
            answers.append(probe.check(sub, deadlines, build_schedule=False).feasible)
        assert probe.event_refresh_reuses > 0
        assert probe.coefficient_refreshes + probe.event_refresh_reuses == probe.lp_solves
        # The reuse is sound: re-asking through a fresh probe agrees.
        fresh = ReplanProbe()
        for objective, expected in zip((5.0, 10.0, 20.0, 40.0, 80.0), answers):
            deadlines = [2.0 + objective / job.weight for job in sub.jobs]
            assert fresh.check(sub, deadlines, build_schedule=False).feasible == expected

    def test_switching_instances_clears_the_event_scope(self):
        probe = ReplanProbe()
        first, _ = remaining_subinstance(
            random_unrelated_instance(5, 3, seed=5), 1.0, [0, 1, 2], [1.0, 1.0, 1.0]
        )
        second, _ = remaining_subinstance(
            random_unrelated_instance(5, 3, seed=6), 1.0, [0, 1, 2], [1.0, 1.0, 1.0]
        )
        deadlines = [50.0, 50.0, 50.0]
        probe.check(first, deadlines, build_schedule=False)
        probe.check(first, deadlines, build_schedule=False)
        reuses_before = probe.event_refresh_reuses
        assert reuses_before == 1
        # New event instance: the first check must rewrite coefficients even
        # though the structure (and hence the template) is cached.
        probe.check(second, deadlines, build_schedule=False)
        assert probe.event_refresh_reuses == reuses_before
        probe.check(second, deadlines, build_schedule=False)
        assert probe.event_refresh_reuses == reuses_before + 1

    def test_switching_instances_clears_the_permutation_cache(self):
        probe = ReplanProbe(rank_keyed=True)
        first, _ = remaining_subinstance(
            random_unrelated_instance(5, 3, seed=5), 1.0, [0, 1, 2], [1.0, 1.0, 1.0]
        )
        second, _ = remaining_subinstance(
            random_unrelated_instance(5, 3, seed=6), 1.0, [0, 1, 2], [1.0, 1.0, 1.0]
        )
        deadlines = [40.0, 10.0, 25.0]  # relabelled to (1, 2, 0)
        for sub in (first, second, first):
            got = probe.check(sub, deadlines, build_schedule=False)
            # Only the current event's views are kept, built from its instance.
            (view, _), = probe._event_views.values()
            assert np.array_equal(view.costs, sub.costs[:, [1, 2, 0]])
            _assert_same_as_fresh(probe, got, sub, deadlines)
        assert probe.rank_canonicalisations == 3


def _assert_same_as_fresh(probe, got, sub, deadlines):
    """``got`` (from ``probe``) equals a fresh probe's answer and structure key."""
    fresh = ReplanProbe(preemptive=probe.preemptive, rank_keyed=probe._rank_keyed)
    want = fresh.check(sub, deadlines, build_schedule=False)
    assert got.feasible == want.feasible
    assert got.num_intervals == want.num_intervals
    assert got.lp_variables == want.lp_variables
    assert got.lp_constraints == want.lp_constraints
    (fresh_key,) = fresh._templates
    assert next(reversed(probe._templates)) == fresh_key  # the key just used


class TestPerEventCache:
    """The per-event permutation cache and float-only cuts answer like a fresh probe."""

    def test_rank_order_flipping_mid_bisection(self):
        # Staggered original releases and unequal weights: the deadline
        # order r_j + F / w_j of the remaining jobs flips at F = 15 (J0/J4)
        # and F = 16 (J1/J3), inside the bisection's range.
        jobs = [
            Job(name=f"J{k}", release_date=release, weight=weight)
            for k, (release, weight) in enumerate(
                [(0.0, 1.0), (5.0, 4.0), (3.0, 0.5), (1.0, 2.0), (5.0, 1.5)]
            )
        ]
        costs = [[3.0, 5.0, 2.0, 4.0, 6.0], [4.0, 2.0, 5.0, 3.0, 2.5]]
        instance = Instance.from_costs(jobs, costs)
        active = [0, 1, 2, 3, 4]
        sub, ordered = remaining_subinstance(
            instance, 7.0, active, [0.9, 0.6, 1.0, 0.4, 0.8]
        )
        for preemptive in (False, True):
            probe = ReplanProbe(preemptive=preemptive, rank_keyed=True)
            orders = set()
            low, high = 7.0, 60.0
            for _ in range(12):
                mid = 0.5 * (low + high)
                deadlines = [
                    instance.jobs[j].release_date + mid / instance.jobs[j].weight
                    for j in ordered
                ]
                orders.add(tuple(sorted(range(len(deadlines)), key=deadlines.__getitem__)))
                got = probe.check(sub, deadlines, build_schedule=False)
                _assert_same_as_fresh(probe, got, sub, deadlines)
                if got.feasible:
                    high = mid
                else:
                    low = mid
            assert len(orders) >= 3  # the order flipped more than once
            assert len(probe._event_views) == len(orders)  # one view per order

    @pytest.mark.parametrize("rank_keyed", [False, True])
    def test_deadlines_within_abs_tol_merge_their_cuts(self, rank_keyed):
        from repro.core.tolerances import ABS_TOL

        sub, _ = remaining_subinstance(
            random_unrelated_instance(6, 3, seed=8), 1.0, [0, 1, 2, 3], [1.0, 0.6, 0.8, 0.3]
        )
        probe = ReplanProbe(rank_keyed=rank_keyed)
        for base in (12.0, 20.0, 45.0):
            deadlines = [base + ABS_TOL / 2, base, base + 6.0 - ABS_TOL / 3, base + 6.0]
            got = probe.check(sub, deadlines, build_schedule=False)
            assert got.num_intervals == 2  # 1.0 | base | base + 6
            _assert_same_as_fresh(probe, got, sub, deadlines)
        witness = probe.check(sub, deadlines, build_schedule=True)
        reference = check_deadline_feasibility(sub, deadlines, build_schedule=True)
        assert witness.num_intervals == reference.num_intervals == 2
        assert witness.feasible == reference.feasible
