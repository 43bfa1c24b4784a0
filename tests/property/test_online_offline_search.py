"""The milestone search of ``online-offline`` is exact and configuration-free.

Three properties of the re-planner (Section 5's "on-line adaptation of our
off-line algorithm"):

1. **Exactness** — at every replanning event the planned ``F`` is the least
   feasible objective of the remaining work, within LP tolerance.  The
   oracle brackets that value by a 1e-9 bisection over the from-scratch
   :func:`~repro.core.deadline.check_deadline_feasibility`.  (The off-line
   ``minimize_max_weighted_flow`` cannot be the oracle: the deadlines of the
   remaining work count from each job's original release date, not from the
   common release date ``t`` of the sub-instance.)
2. **Identity** — ``backend`` and ``parametric`` change nothing: every LP
   of the search is a HiGHS range LP, so every configuration executes the
   same schedule.
3. **Scale** — release dates and costs scaled by ``2**k`` scale the max
   weighted flow by ``2**k``: the search has no absolute stop rule.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job
from repro.core.deadline import check_deadline_feasibility
from repro.heuristics import OnlineOfflineAdaptationScheduler, make_scheduler, online_offline
from repro.simulation import simulate
from repro.workload import available_scenarios, make_scenario, random_unrelated_instance

#: Relative distance allowed between the planned and the least feasible F:
#: HiGHS's primal feasibility tolerance (1e-7) with room for the verdicts'.
LP_TOLERANCE = 1e-6

#: The four constructor configurations; the plan must not depend on them.
VERDICT_CONFIGURATIONS = (
    {"backend": "scipy", "parametric": True},
    {"backend": "scipy", "parametric": False},
    {"backend": "revised", "parametric": True},
    {"backend": "revised", "parametric": False},
)


@st.composite
def small_instance(draw):
    """A random unrelated instance with 2-4 jobs and 1-3 machines."""
    num_jobs = draw(st.integers(min_value=2, max_value=4))
    num_machines = draw(st.integers(min_value=1, max_value=3))
    jobs = [
        Job(
            name=f"J{j}",
            release_date=draw(st.floats(min_value=0.0, max_value=8.0)),
            weight=draw(st.floats(min_value=0.25, max_value=4.0)),
        )
        for j in range(num_jobs)
    ]
    costs = [
        [draw(st.floats(min_value=0.5, max_value=12.0)) for _ in range(num_jobs)]
        for _ in range(num_machines)
    ]
    return Instance.from_costs(jobs, costs)


def _planned_searches(instance: Instance, **params) -> Tuple[List[Tuple], object]:
    """Run the policy; return each event's (remaining work, origins, planned F)."""
    events: List[list] = []
    boundaries = OnlineOfflineAdaptationScheduler._boundaries

    def recorded_boundaries(sub_instance, origins, weights, now):
        events.append([sub_instance, list(origins)])
        return boundaries(sub_instance, origins, weights, now)

    def recorded(build_schedule):
        def build(alloc, solution, *, objective_value):
            events[-1].append(objective_value)
            return build_schedule(alloc, solution, objective_value=objective_value)

        return build

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            OnlineOfflineAdaptationScheduler, "_boundaries", staticmethod(recorded_boundaries)
        )
        for name in ("divisible_schedule_from_solution", "preemptive_schedule_from_solution"):
            patch.setattr(online_offline, name, recorded(getattr(online_offline, name)))
        result = simulate(instance, OnlineOfflineAdaptationScheduler(**params))
    result.schedule.validate()
    # Every event planned exactly one F.
    assert all(len(event) == 3 for event in events), events
    return [tuple(event) for event in events], result


def _least_feasible(
    sub_instance: Instance, origins: Sequence[float], preemptive: bool
) -> Tuple[float, float]:
    """Bracket the least feasible F of the remaining work to 1e-9 (relative)."""

    def feasible(objective: float) -> bool:
        deadlines = [
            origin + objective / job.weight for origin, job in zip(origins, sub_instance.jobs)
        ]
        return check_deadline_feasibility(
            sub_instance, deadlines, preemptive=preemptive, build_schedule=False
        ).feasible

    now = sub_instance.jobs[0].release_date
    # At this F some deadline is the current time: positive work misses it.
    low = max(job.weight * (now - origin) for origin, job in zip(origins, sub_instance.jobs))
    high = max(low, 1.0)
    while not feasible(high):
        low, high = high, 2.0 * high
    while high - low > 1e-9 * high:
        middle = 0.5 * (low + high)
        if feasible(middle):
            high = middle
        else:
            low = middle
    return low, high


@pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])
@given(instance=small_instance())
@settings(max_examples=8, deadline=None)
def test_every_plan_is_the_least_feasible_objective(preemptive, instance):
    searches = {}
    pieces = {}
    for params in VERDICT_CONFIGURATIONS:
        key = tuple(params.values())
        searches[key], result = _planned_searches(instance, preemptive=preemptive, **params)
        pieces[key] = result.schedule.pieces
    reference = searches[("scipy", True)]
    assert reference
    for key in searches:
        assert [event[2] for event in searches[key]] == [event[2] for event in reference], key
        assert pieces[key] == pieces[("scipy", True)], key
    for sub_instance, origins, planned in reference:
        low, high = _least_feasible(sub_instance, origins, preemptive)
        slack = LP_TOLERANCE * max(1.0, high)
        assert low - slack <= planned <= high + slack, (planned, low, high)


@pytest.mark.parametrize("model", ["false", "true"], ids=["divisible", "preemptive"])
@pytest.mark.parametrize("scenario", available_scenarios())
def test_the_revised_backend_plans_the_default_schedule(scenario, model):
    """``backend`` changes nothing: both values plan alike."""
    for seed in range(3):
        instance = make_scenario(scenario, seed=seed)
        default = simulate(instance, make_scheduler(f"online-offline:preemptive={model}"))
        revised = simulate(
            instance, make_scheduler(f"online-offline:preemptive={model},backend=revised")
        )
        assert revised.schedule.pieces == default.schedule.pieces, (scenario, seed)


def _scaled(instance: Instance, exponent: int) -> Instance:
    """``instance`` with every release date and cost scaled by ``2**exponent``."""
    factor = 2.0**exponent
    jobs = tuple(
        Job(job.name, job.release_date * factor, weight=job.weight) for job in instance.jobs
    )
    return Instance(jobs=jobs, machines=instance.machines, costs=instance.costs * factor)


@pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])
@pytest.mark.parametrize("seed", range(4))
def test_max_weighted_flow_scales_with_the_timescale(seed, preemptive):
    instance = random_unrelated_instance(6, 3, seed=seed)
    unscaled = simulate(
        instance, OnlineOfflineAdaptationScheduler(preemptive=preemptive)
    ).max_weighted_flow
    for exponent in (-20, -10, 10):
        scaled = simulate(
            _scaled(instance, exponent), OnlineOfflineAdaptationScheduler(preemptive=preemptive)
        ).max_weighted_flow
        assert scaled / 2.0**exponent == pytest.approx(unscaled, rel=1e-12, abs=0.0), exponent
