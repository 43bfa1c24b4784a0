"""Unit tests for finite-instance runs: simulate_many and the policy-facing state."""

from __future__ import annotations

import pytest

from repro.heuristics import make_scheduler
from repro.simulation import simulate, simulate_many
from repro.workload import make_scenario, random_unrelated_instance


class TestSimulateMany:
    def test_matches_individual_simulations(self):
        instances = [random_unrelated_instance(8, 3, seed=s) for s in range(4)]
        batched = simulate_many(instances, lambda: make_scheduler("mct"))
        for instance, result in zip(instances, batched):
            single = simulate(instance, make_scheduler("mct"))
            assert result.schedule.pieces == single.schedule.pieces
            assert result.completion_times == single.completion_times

    def test_scheduler_object_is_reset_between_instances(self):
        # MCT keeps per-run queues; reusing one object must behave like
        # building a fresh scheduler per instance (reset() wipes the state).
        instances = [random_unrelated_instance(8, 3, seed=s) for s in range(3)]
        shared = simulate_many(instances, make_scheduler("mct"))
        fresh = simulate_many(instances, lambda: make_scheduler("mct"))
        for a, b in zip(shared, fresh):
            assert a.schedule.pieces == b.schedule.pieces

    def test_scenario_seed_sweep(self):
        instances = [make_scenario("unrelated-stress", seed=s) for s in (1, 2, 3)]
        results = simulate_many(instances, lambda: make_scheduler("greedy-weighted-flow"))
        assert len(results) == 3
        for result in results:
            result.schedule.validate()

    def test_empty_iterable(self):
        assert simulate_many([], lambda: make_scheduler("fifo")) == []


class TestStateViewIntegrity:
    def test_active_cache_matches_recomputation(self):
        # A policy that cross-checks the engine-maintained active list
        # against a scan of the JobProgress mirrors at every event.
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        class CheckingScheduler(OnlineScheduler):
            name = "checking"

            def decide(self, state):
                scanned = [
                    p.job_index for p in state.jobs if p.arrived and not p.finished
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


class TestArrayAwareDispatch:
    """Capability-flag dispatch to decide_arrays over the remaining vector."""

    def test_vectors_are_bound_and_authoritative(self):
        from repro.heuristics.base import OnlineScheduler, exclusive_allocation

        observed = []

        class VectorReader(OnlineScheduler):
            name = "vector-reader"
            array_aware = True

            def decide(self, state):  # pragma: no cover - array path used
                raise AssertionError("array-aware policies dispatch to decide_arrays")

            def decide_arrays(self, state):
                active = state.active_jobs()
                observed.append(
                    (
                        state.remaining_vector is not None,
                        float(state.remaining_vector[active[0]]),
                    )
                )
                return exclusive_allocation({0: active[0]})

        instance = random_unrelated_instance(5, 2, seed=4)
        result = simulate(instance, VectorReader())
        assert observed and all(has_rem for has_rem, _ in observed)
        remaining_seen = [value for _, value in observed]
        assert max(remaining_seen) <= 1.0 and min(remaining_seen) >= 0.0
        result.schedule.validate()

    def test_array_aware_policies_match_their_scalar_path(self):
        from repro.heuristics import make_scheduler

        for name in ("srpt", "greedy-weighted-flow", "online-offline", "deadline-driven"):
            instance = random_unrelated_instance(12, 3, seed=9)
            array_result = simulate(instance, make_scheduler(name))

            scalar = make_scheduler(name)
            assert scalar.array_aware  # all four opted in
            scalar.array_aware = False  # force the legacy mirror path
            scalar_result = simulate(instance, scalar)

            assert array_result.schedule.pieces == scalar_result.schedule.pieces, name
            assert array_result.events == scalar_result.events, name
            assert array_result.completion_times == scalar_result.completion_times, name

    def test_scalar_accessors_prefer_the_bound_vector(self):
        import numpy as np

        from repro.simulation.state import JobProgress, SimulationState

        instance = random_unrelated_instance(3, 2, seed=0)
        jobs = [JobProgress(job_index=j, remaining_fraction=0.5) for j in range(3)]
        state = SimulationState(
            instance=instance, time=0.0, jobs=jobs, next_arrival=None
        )
        assert state.remaining_fraction(1) == 0.5  # mirror fallback
        state.remaining_vector = np.array([0.25, 0.75, 1.0])
        assert state.remaining_fraction(1) == 0.75  # vector wins when bound
        assert state.fastest_remaining_work(1) == 0.75 * instance.min_cost(1)


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
