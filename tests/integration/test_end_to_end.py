"""End-to-end integration tests across subsystems.

These tests exercise the complete pipelines a downstream user would run:
generate a GriPPS deployment, solve it off line, replay it on line, persist
results, and check the paper's qualitative claims on the way.
"""

from __future__ import annotations

import pytest

from repro.analysis import linear_regression
from repro.core import (
    minimize_makespan,
    minimize_max_stretch,
    minimize_max_weighted_flow,
)
from repro.gripps import (
    make_gripps_instance,
    motif_divisibility_experiment,
    sequence_divisibility_experiment,
)
from repro.heuristics import available_schedulers, make_scheduler
from repro.simulation import simulate
from repro.workload import load_schedule, make_scenario, save_schedule


class TestOfflinePipeline:
    def test_gripps_instance_full_solver_chain(self):
        instance = make_gripps_instance(num_requests=8, num_machines=4, seed=99)
        makespan = minimize_makespan(instance)
        flow = minimize_max_weighted_flow(instance)
        stretch = minimize_max_stretch(instance)
        preemptive = minimize_max_weighted_flow(instance, preemptive=True)

        for result in (makespan, flow, preemptive, stretch):
            result.schedule.validate()

        # Hierarchy of objectives: the divisible optimum never exceeds the
        # preemptive optimum; both schedules realise their stated objective.
        assert flow.objective <= preemptive.objective + 1e-6
        assert flow.schedule.max_weighted_flow <= flow.objective + 1e-4
        assert preemptive.schedule.max_weighted_flow <= preemptive.objective + 1e-4
        # The makespan of the flow-optimal schedule is at least the optimal makespan.
        assert flow.schedule.makespan >= makespan.makespan - 1e-6

    def test_schedule_persistence_round_trip(self, tmp_path):
        instance = make_scenario("small-cluster", seed=5)
        result = minimize_max_weighted_flow(instance)
        path = tmp_path / "optimal.json"
        save_schedule(result.schedule, path)
        restored = load_schedule(path)
        restored.validate()
        assert restored.max_weighted_flow == pytest.approx(
            result.schedule.max_weighted_flow, rel=1e-9
        )


class TestOnlinePipeline:
    def test_every_policy_completes_every_scenario_job(self):
        instance = make_scenario("bursty-batch", seed=13)
        offline = minimize_max_weighted_flow(instance).objective
        for name in available_schedulers():
            result = simulate(instance, make_scheduler(name))
            result.schedule.validate()
            # No on-line policy can beat the off-line optimum.
            assert result.max_weighted_flow >= offline - 1e-6

    def test_online_adaptation_beats_mct_on_the_paper_scenario(self):
        """The Section 5 claim on a GriPPS-like scenario."""
        instance = make_gripps_instance(
            num_requests=10,
            num_machines=4,
            replication=0.6,
            arrival_rate=1.0 / 25.0,
            seed=2005,
        )
        online = simulate(instance, make_scheduler("online-offline"))
        mct = simulate(instance, make_scheduler("mct"))
        assert online.max_weighted_flow <= mct.max_weighted_flow + 1e-9


class TestApplicationStudyPipeline:
    def test_divisibility_studies_feed_the_scheduling_model(self):
        sequence_fit = linear_regression(
            *sequence_divisibility_experiment(repetitions=3).as_arrays()
        )
        motif_fit = linear_regression(*motif_divisibility_experiment(repetitions=3).as_arrays())
        # Both dimensions are linear; the motif-side overhead dominates the
        # sequence-side overhead, exactly as the paper reports.
        assert sequence_fit.r_squared > 0.99
        assert motif_fit.r_squared > 0.99
        assert motif_fit.intercept > sequence_fit.intercept
