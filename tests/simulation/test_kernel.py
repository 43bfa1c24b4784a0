"""Unit tests for finite-instance runs and the policy-facing state."""

from __future__ import annotations

import pytest

from repro.heuristics import make_scheduler
from repro.simulation import simulate
from repro.workload import make_scenario, random_unrelated_instance


class TestManyInstances:
    """One policy over many instances is a loop over ``simulate``."""

    def test_scheduler_object_is_reset_between_instances(self):
        # MCT keeps per-run queues; reusing one object must behave like
        # building a fresh scheduler per instance (reset() wipes the state).
        instances = [random_unrelated_instance(8, 3, seed=s) for s in range(3)]
        shared = make_scheduler("mct")
        for instance in instances:
            reused = simulate(instance, shared)
            fresh = simulate(instance, make_scheduler("mct"))
            assert reused.schedule.pieces == fresh.schedule.pieces

    def test_scenario_seed_sweep(self):
        for seed in (1, 2, 3):
            instance = make_scenario("unrelated-stress", seed=seed)
            simulate(instance, make_scheduler("greedy-weighted-flow")).schedule.validate()


class TestStateViewIntegrity:
    def test_active_cache_matches_recomputation(self):
        # A policy that cross-checks the engine-maintained active list
        # against the admitted jobs with remaining work, at every event.
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        class CheckingScheduler(OnlineScheduler):
            name = "checking"

            def decide(self, state):
                scanned = [
                    j
                    for j in range(state.instance.num_jobs)
                    if state.remaining_fraction(j) > 0
                ]
                assert state.active_jobs() == scanned
                assignments = {}
                for machine_index, job_index in enumerate(scanned):
                    if machine_index >= state.instance.num_machines:
                        break
                    assignments[machine_index] = job_index
                return exclusive_allocation(assignments)

        instance = random_unrelated_instance(10, 3, seed=5)
        result = simulate(instance, CheckingScheduler())
        result.schedule.validate()


class TestPooledState:
    def test_state_object_is_reused_across_events(self):
        # The event loop hands the policy the same SimulationState object
        # at every event of a run (updated in place).
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        seen = []

        class IdentityRecorder(OnlineScheduler):
            name = "identity-recorder"

            def decide(self, state):
                seen.append(id(state))
                active = state.active_jobs()
                return exclusive_allocation({0: active[0]})

        simulate(random_unrelated_instance(6, 2, seed=1), IdentityRecorder())
        assert len(seen) > 1
        assert len(set(seen)) == 1  # one object, every event

    def test_pooled_state_tracks_time_and_arrivals(self):
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        observations = []

        class Recorder(OnlineScheduler):
            name = "recorder"

            def decide(self, state):
                observations.append((state.time, state.next_arrival))
                active = state.active_jobs()
                return exclusive_allocation({0: active[0]})

        instance = random_unrelated_instance(6, 2, seed=3)
        simulate(instance, Recorder())
        times = [time for time, _ in observations]
        assert times == sorted(times)  # in-place updates advance monotonically
        assert observations[-1][1] is None  # all arrivals eventually consumed


class TestRemainingWorkAccess:
    """The event loop's one copy of the remaining work, and the accessors."""

    def test_vectors_are_bound_and_authoritative(self):
        # Every registered policy sees the window's remaining list bound and
        # no per-job objects; a wrapper records what each decision saw.
        from repro.heuristics import available_schedulers

        observed = []

        class Watching:
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.divisible = inner.divisible

            def reset(self, instance):
                self.inner.reset(instance)

            def rebind(self, instance):
                self.inner.rebind(instance)

            def compact(self, instance, mapping):
                self.inner.compact(instance, mapping)

            def decide(self, state):
                observed.append(
                    (
                        self.name,
                        type(state.remaining_list) is list,
                        [state.remaining_fraction(j) for j in state.active_jobs()],
                    )
                )
                return self.inner.decide(state)

        instance = random_unrelated_instance(6, 2, seed=4)
        policies = available_schedulers()
        for name in policies:
            simulate(instance, Watching(make_scheduler(name))).schedule.validate()
        assert {name for name, *_ in observed} >= {make_scheduler(n).name for n in policies}
        assert all(bound for _, bound, _ in observed)
        seen = [value for *_, values in observed for value in values]
        assert seen and max(seen) <= 1.0 and min(seen) > 0.0

    def test_scalar_accessors_read_the_bound_list(self):
        # remaining_fraction reads the one list, and sees in-place updates.
        from repro.simulation.state import SimulationState

        instance = random_unrelated_instance(3, 2, seed=0)
        remaining = [0.125, 0.375, 1.0]
        state = SimulationState(
            instance=instance,
            time=0.0,
            next_arrival=None,
            active=[0, 1, 2],
            remaining_list=remaining,
        )
        assert state.remaining_fraction(1) == 0.375
        assert state.fastest_remaining_work(1) == 0.375 * instance.min_cost(1)
        remaining[1] = 0.25
        assert state.remaining_fraction(1) == 0.25


class TestFiniteInstanceMode:
    """``simulate`` drives the streaming event loop over ``replay_stream``."""

    def test_reused_scheduler_is_stateless_between_runs(self):
        instance = random_unrelated_instance(10, 3, seed=6)
        scheduler = make_scheduler("mct")
        first = simulate(instance, scheduler)
        second = simulate(instance, scheduler)
        assert first.schedule.pieces == second.schedule.pieces
        assert first.events == second.events
        assert first.completion_times == second.completion_times
        assert first.num_scheduler_calls == second.num_scheduler_calls

    def test_duck_typed_scheduler_without_reset_or_rebind(self):
        # Only name, divisible and decide: the loop must not require the
        # optional reset/rebind hooks.
        from repro.heuristics.base import exclusive_allocation

        class Minimal:
            name = "minimal"
            divisible = True

            def decide(self, state):
                active = state.active_jobs()
                machines = state.instance.num_machines
                return exclusive_allocation(
                    {machine: job for machine, job in enumerate(active[:machines])}
                )

        instance = random_unrelated_instance(7, 2, seed=2)
        result = simulate(instance, Minimal())
        result.schedule.validate()
        assert result.scheduler_name == "minimal"
        assert sorted(result.completion_times) == list(range(instance.num_jobs))

    def test_emits_kernel_counters_and_no_stream_counters(self):
        from repro.obs.metrics import collecting

        instance = random_unrelated_instance(9, 3, seed=8)
        with collecting() as recorder:
            result = simulate(instance, make_scheduler("srpt"))
        counters = recorder.counters
        assert counters["kernel.runs"] == 1.0
        assert counters["kernel.decisions"] == float(result.num_scheduler_calls)
        assert counters["kernel.preemptions"] == float(result.num_preemptions)
        assert recorder.histograms["kernel.jobs"].count == 1
        assert not [name for name in counters if name.startswith("stream.")]

    def test_window_slots_stay_instance_indices_past_a_capacity_growth(self):
        # More jobs than the initial window capacity (64): finite runs never
        # compact, so every slot the policy sees is the instance's job index.
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        instance = random_unrelated_instance(90, 4, seed=12)
        mismatches = []

        class SlotChecker(OnlineScheduler):
            name = "slot-checker"

            def decide(self, state):
                active = state.active_jobs()
                for slot in active:
                    if state.instance.jobs[slot].name != instance.jobs[slot].name:
                        mismatches.append(slot)
                return exclusive_allocation(
                    {machine: job for machine, job in enumerate(active[:4])}
                )

        result = simulate(instance, SlotChecker())
        result.schedule.validate()
        assert mismatches == []


class TestScheduleLog:
    """Piece layout of finite-instance runs."""

    def test_exclusive_run_across_arrivals_is_one_piece(self):
        from repro.core import Instance, Job
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        # Job 0 holds machine 0 for its whole 10 s while arrivals at t=1
        # and t=2 open new decision windows on machine 1.
        jobs = [Job("A", 0.0), Job("B", 1.0), Job("C", 2.0)]
        costs = [[10.0, 50.0, 50.0], [50.0, 1.0, 1.0]]
        instance = Instance.from_costs(jobs, costs)

        class Pinned(OnlineScheduler):
            name = "pinned"

            def decide(self, state):
                active = state.active_jobs()
                assignments = {0: 0} if 0 in active else {}
                others = [job for job in active if job != 0]
                if others:
                    assignments[1] = others[0]
                return exclusive_allocation(assignments)

        result = simulate(instance, Pinned())
        result.schedule.validate()
        pieces = [piece for piece in result.schedule.pieces if piece.job_index == 0]
        assert len(pieces) == 1
        assert pieces[0].machine_index == 0
        assert pieces[0].start == 0.0
        assert pieces[0].end == pytest.approx(10.0)
        assert pieces[0].fraction == pytest.approx(1.0)

    def test_time_shared_window_is_laid_out_sequentially(self):
        from repro.core import Instance, Job
        from repro.heuristics.base import OnlineScheduler
        from repro.simulation import AllocationDecision

        jobs = [Job("A", 0.0), Job("B", 0.0)]
        instance = Instance.from_costs(jobs, [[2.0, 2.0]])

        class HalfAndHalf(OnlineScheduler):
            name = "half-and-half"

            def decide(self, state):
                active = state.active_jobs()
                share = 1.0 / len(active)
                return AllocationDecision(shares={0: [(job, share) for job in active]})

        result = simulate(instance, HalfAndHalf())
        result.schedule.validate()
        pieces = sorted(result.schedule.pieces, key=lambda piece: piece.start)
        assert [piece.job_index for piece in pieces] == [0, 1]
        assert pieces[0].start == 0.0
        assert pieces[0].end == pytest.approx(2.0)
        assert pieces[1].start == pytest.approx(2.0)
        assert pieces[1].end == pytest.approx(4.0)
        # Both jobs progress throughout the shared window: they finish together.
        assert result.completion_times[0] == pytest.approx(4.0)
        assert result.completion_times[1] == pytest.approx(4.0)

    def test_preempted_piece_is_flushed_at_the_preemption_time(self):
        from repro.core import Instance, Job
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        # Latest arrival first on one machine: B preempts A at t=1.
        jobs = [Job("A", 0.0), Job("B", 1.0)]
        instance = Instance.from_costs(jobs, [[4.0, 1.0]])

        class LatestFirst(OnlineScheduler):
            name = "latest-first"

            def decide(self, state):
                return exclusive_allocation({0: state.active_jobs()[-1]})

        result = simulate(instance, LatestFirst())
        result.schedule.validate()
        layout = [
            (piece.job_index, piece.start, piece.end, piece.fraction)
            for piece in result.schedule.pieces
        ]
        assert layout == [
            (0, 0.0, pytest.approx(1.0), pytest.approx(0.25)),
            (1, 1.0, pytest.approx(2.0), pytest.approx(1.0)),
            (0, pytest.approx(2.0), pytest.approx(5.0), pytest.approx(0.75)),
        ]
        assert result.num_preemptions == 1
        assert result.completion_times == {0: pytest.approx(5.0), 1: pytest.approx(2.0)}
