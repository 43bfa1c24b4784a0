"""Tests for the rolling-horizon streaming simulator (repro.simulation.stream)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.heuristics import make_scheduler
from repro.simulation import StreamingSimulator, simulate
from repro.workload import StreamSpec, make_scenario, open_stream, replay_stream

#: Policies with exact streaming semantics (rebind/compact hooks); every one
#: must reproduce ``simulate`` on trace replays and be compaction-timing
#: invariant.
ALL_POLICIES = (
    "fifo",
    "spt",
    "mct",
    "srpt",
    "greedy-weighted-flow",
    "round-robin",
    "deadline-driven",
    "online-offline",
)
FAST_POLICIES = ("srpt", "greedy-weighted-flow", "mct", "round-robin")


def _assert_replay_matches_simulate(instance, policy):
    """A stream replay of ``instance`` executes exactly like ``simulate``.

    Flows are compared as ``C_j - r_j`` from ``simulate`` against the
    stream's own flow series, bit for bit (rebuilding completion times as
    ``r_j + flow`` would round).
    """
    batch = simulate(instance, make_scheduler(policy))
    stream = StreamingSimulator().run(replay_stream(instance), make_scheduler(policy))
    flows = np.array(
        [
            batch.completion_times[j] - instance.jobs[j].release_date
            for j in range(instance.num_jobs)
        ]
    )
    assert stream.completions == instance.num_jobs, policy
    assert np.array_equal(stream.flows, flows[stream.completed_jobs]), policy
    assert stream.decisions == batch.num_scheduler_calls, policy
    assert stream.preemptions == batch.num_preemptions, policy


class TestTraceEquivalence:
    """Replaying a finite instance as a stream reproduces ``simulate``."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_trace_replay_matches_the_kernel_byte_for_byte(self, policy):
        _assert_replay_matches_simulate(make_scenario("small-cluster", seed=3), policy)

    def test_trace_replay_matches_on_an_unrelated_instance(self):
        instance = make_scenario("unrelated-stress", seed=11)
        for policy in FAST_POLICIES:
            _assert_replay_matches_simulate(instance, policy)


class TestDeterminism:
    def test_same_spec_runs_are_byte_identical(self):
        spec = StreamSpec(label="d", scenario="small-cluster", seed=7).with_utilisation(0.6)
        first = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=800
        )
        second = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=800
        )
        assert first.fingerprint() == second.fingerprint()
        assert np.array_equal(first.stretches, second.stretches)
        assert np.array_equal(first.completed_jobs, second.completed_jobs)


class TestCompaction:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_compaction_timing_never_changes_the_simulation(self, policy):
        """Aggressive vs disabled compaction: identical completions.

        This is the window-lifecycle contract: policies with exact
        ``compact()`` remaps (and the default reset for stateless ones)
        must behave identically no matter when dead slots are squeezed out.
        """
        spec = StreamSpec(label="c", scenario="small-cluster", seed=11).with_utilisation(0.7)
        arrivals = 60 if policy in ("online-offline", "deadline-driven") else 300
        eager = StreamingSimulator(compact_min=1).run(
            open_stream(spec), make_scheduler(policy), max_arrivals=arrivals
        )
        lazy = StreamingSimulator(compact_min=10**9).run(
            open_stream(spec), make_scheduler(policy), max_arrivals=arrivals
        )
        assert eager.compactions > 0 and lazy.compactions == 0
        assert np.array_equal(eager.completed_jobs, lazy.completed_jobs)
        assert np.array_equal(eager.flows, lazy.flows)
        assert eager.preemptions == lazy.preemptions
        assert eager.decisions == lazy.decisions

    def test_window_stays_o_active_not_o_arrivals(self):
        spec = StreamSpec(label="c", scenario="small-cluster", seed=5).with_utilisation(0.6)
        result = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=5000
        )
        assert result.completions == 5000
        # The compaction rule bounds the window by twice the live occupancy
        # (plus the compaction hysteresis) — never by the arrival count.
        assert result.peak_window <= 2 * result.peak_active + 16
        assert result.peak_window < 500 < result.arrivals

    def test_fully_drained_window_compacts_and_restarts_cleanly(self):
        # A very low load empties the queue over and over: slot indices are
        # reused only after the policy was notified (pending compaction).
        spec = StreamSpec(label="c", scenario="small-cluster", seed=9).with_utilisation(0.05)
        result = StreamingSimulator(compact_min=2).run(
            open_stream(spec), make_scheduler("mct"), max_arrivals=120
        )
        assert result.completions == 120
        assert result.compactions > 0
        assert result.peak_window <= 10


class TestSaturation:
    def test_supercritical_stream_is_flagged_not_looped(self):
        spec = StreamSpec(label="s", scenario="small-cluster", seed=3).with_utilisation(1.5)
        result = StreamingSimulator(max_active=150).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=100_000
        )
        assert result.saturated
        assert result.arrivals < 100_000  # stopped long before the budget
        assert result.peak_active > 150

    def test_subcritical_stream_is_not_flagged(self):
        spec = StreamSpec(label="s", scenario="small-cluster", seed=3).with_utilisation(0.4)
        result = StreamingSimulator(max_active=150).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=600
        )
        assert not result.saturated
        assert result.completions == 600


class TestResultAccounting:
    def test_metrics_series_align_with_completions(self):
        spec = StreamSpec(label="m", scenario="hotspot", seed=4).with_utilisation(0.5)
        result = StreamingSimulator().run(
            open_stream(spec), make_scheduler("greedy-weighted-flow"), max_arrivals=400
        )
        assert result.completions == 400
        for series in (result.flows, result.weighted_flows, result.stretches):
            assert series.shape == (400,)
            assert (series > 0).all()
        assert result.stretches.min() >= 1.0 - 1e-9  # stretch is at least 1
        assert sorted(result.completed_jobs) == list(range(400))
        assert 0.0 < result.utilisation <= 1.0
        assert result.end_time > result.start_time

    def test_queue_trajectory_is_recorded_and_bounded(self):
        spec = StreamSpec(label="m", scenario="small-cluster", seed=4).with_utilisation(0.55)
        result = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=3000
        )
        assert result.queue_times.size == result.queue_lengths.size
        assert 0 < result.queue_times.size <= 4200  # decimated, never O(arrivals) unbounded
        assert result.queue_lengths.max() <= result.peak_active

    def test_open_ended_stream_requires_max_arrivals(self):
        stream = open_stream(StreamSpec(label="m", seed=1))
        with pytest.raises(SimulationError):
            StreamingSimulator().run(stream, make_scheduler("srpt"))

    def test_finite_trace_needs_no_budget(self):
        instance = make_scenario("bursty-batch", seed=2)
        result = StreamingSimulator().run(replay_stream(instance), make_scheduler("srpt"))
        assert result.completions == instance.num_jobs


class TestConstruction:
    def test_simulator_parameters_are_keyword_only(self):
        with pytest.raises(TypeError):
            StreamingSimulator(100)  # type: ignore[misc]
        assert StreamingSimulator(max_active=100).max_active == 100

    def test_scheduler_without_rebind_runs_a_stream(self):
        # rebind (like reset) is an optional hook, looked up on the scheduler;
        # a stateless policy only needs decide and a compact hook.
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

            def compact(self, view, mapping):
                pass

        instance = make_scenario("small-cluster", seed=2)
        result = StreamingSimulator().run(replay_stream(instance), Minimal())
        assert result.policy == "minimal"
        assert result.completions == instance.num_jobs


@pytest.mark.parametrize("policy", FAST_POLICIES)
def test_work_below_the_clock_resolution_completes_instead_of_stalling(policy):
    """A 1e-8 s job released at t = 1 keeps 6.1e-9 of its work after its
    first window; that work is below the clock's resolution at t = 1 + 1e-8,
    so it can never progress and must complete there.  The loop used to spin
    on zero-width windows forever (stream mode) or exhaust the event budget
    (``simulate``).  The work dropped at completion is below the schedule's
    completion tolerance, so the logged schedule stays valid."""
    from repro.core import Instance, Job

    instance = Instance.from_costs([Job("tiny", 1.0)], [[1e-8]])
    stream = StreamingSimulator().run(replay_stream(instance), make_scheduler(policy))
    assert (stream.completions, stream.end_time) == (1, 1.0 + 1e-8)
    batch = simulate(instance, make_scheduler(policy))
    assert batch.completion_times[0] == 1.0 + 1e-8
    batch.schedule.validate()


class TestStallGuard:
    """Stream mode stops a policy once it goes ``50 * (window + 10)``
    events without an admission, a completion or a window that reduced
    some job's remaining work; the clock advancing alone is no progress."""

    @staticmethod
    def _one_job(cost):
        from repro.core import Instance, Job

        return Instance.from_costs([Job("only", 1.0)], [[cost]])

    @staticmethod
    def _waking(shares_for, step):
        from repro.simulation import AllocationDecision

        class Waking:
            name = "waking"
            divisible = False

            def decide(self, state):
                return AllocationDecision(
                    shares=shares_for(state), wake_up_at=state.time + step
                )

            def compact(self, view, mapping):
                pass

        return Waking()

    def test_idle_policy_that_keeps_waking_up_is_stopped(self):
        policy = self._waking(lambda state: {}, 1.0)
        with pytest.raises(SimulationError, match="made no progress"):
            StreamingSimulator().run(replay_stream(self._one_job(2.0)), policy)

    def test_windows_below_the_work_resolution_are_stopped(self):
        # 1e-12 s on a 1e6 s job moves its remaining fraction by 1e-18,
        # below half an ulp of 1.0: the clock advances, the work does not.
        policy = self._waking(lambda state: {0: [(0, 1.0)]}, 1e-12)
        with pytest.raises(SimulationError, match="made no progress"):
            StreamingSimulator().run(replay_stream(self._one_job(1e6)), policy)

    def test_windows_that_reduce_work_are_progress(self):
        # 1000 wake-up windows with no admission or completion between
        # them, far past the 550-event stall threshold of a one-job window.
        policy = self._waking(lambda state: {0: [(0, 1.0)]}, 0.01)
        result = StreamingSimulator().run(replay_stream(self._one_job(10.0)), policy)
        assert result.completions == 1
        assert result.decisions > 550
