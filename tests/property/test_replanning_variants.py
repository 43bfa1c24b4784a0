"""Property tests for the parametric replanning runtime.

Two properties protect the PR 4 tentpole:

1. **Identity** — every registered ``online-offline`` policy variant,
   resolved through the registry exactly as a campaign would resolve it,
   executes a schedule *identical* to the same variant with
   ``parametric=false``, across the scenario grid.  The knob is inert: it
   may never change behaviour.
2. **Probe economy** — the shared :class:`~repro.core.replanning.ReplanProbe`
   behind ``deadline-driven:lp_targets=true`` answers strictly more
   feasibility checks than it builds models.
"""

from __future__ import annotations

import pytest

from repro.heuristics import make_policy, make_scheduler
from repro.simulation import simulate
from repro.workload import available_scenarios, make_scenario, random_unrelated_instance

#: The swept variant tokens (campaign syntax).  Bare name first: the default
#: configuration must itself be identical to its from-scratch rebuild.
VARIANTS = (
    "online-offline",
    "online-offline:period=2.0",
)

#: Two structurally different small-timescale scenarios keep the grid ×
#: variant product fast (and keep the absolute ``period=2.0`` sensible —
#: the GriPPS scenarios run on multi-thousand-second timescales); the
#: bare-name identity runs over the full grid in the tier-2 test below.
VARIANT_SCENARIOS = ("bursty-batch", "unrelated-stress")


def _outcomes(token: str, scenario: str):
    instance = make_scenario(scenario)
    parametric = make_policy(token).run(instance)
    scratch = make_policy(token, params={"parametric": False}).run(instance)
    return parametric, scratch


@pytest.mark.parametrize("scenario", VARIANT_SCENARIOS)
@pytest.mark.parametrize("token", VARIANTS)
def test_every_variant_matches_its_from_scratch_rebuild(token, scenario):
    parametric, scratch = _outcomes(token, scenario)
    parametric.schedule.validate()
    assert parametric.schedule.pieces == scratch.schedule.pieces, (token, scenario)
    assert parametric.simulation.events == scratch.simulation.events
    assert parametric.simulation.completion_times == scratch.simulation.completion_times
    assert parametric.max_weighted_flow == scratch.max_weighted_flow


@pytest.mark.tier2
@pytest.mark.parametrize("scenario", available_scenarios())
def test_default_policy_matches_from_scratch_on_the_full_grid(scenario):
    parametric, scratch = _outcomes("online-offline", scenario)
    assert parametric.schedule.pieces == scratch.schedule.pieces, scenario
    assert parametric.simulation.completion_times == scratch.simulation.completion_times


@pytest.mark.tier2
def test_tiny_periods_are_floored_to_the_instance_timescale():
    """The flagship ``period=2`` example must finish on every scenario.

    GriPPS scenarios run on multi-thousand-second timescales; an absolute
    period of 2 would force ~makespan/2 wake events and trip the engine's
    cycling budget.  The scheduler floors the effective period at
    ``horizon / (8 n)``, so the simulation completes on any timescale.
    """
    scheduler = make_scheduler("online-offline:period=2")
    instance = make_scenario("hotspot")
    result = simulate(instance, scheduler)  # used to raise SimulationError
    result.schedule.validate()
    assert scheduler._effective_period > scheduler.period


def test_probe_economy_builds_strictly_fewer_models_than_checks():
    # One scheduler across a dozen runs (the campaign shape): structures
    # repeat within each target bisection and across runs.
    scheduler = make_scheduler("deadline-driven:lp_targets=true")
    for seed in range(12):
        instance = random_unrelated_instance(
            10, 3, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=seed
        )
        simulate(instance, scheduler)
    probe = scheduler.replan_probe
    assert probe is not None
    assert probe.probes > 12  # more than one check per run
    assert probe.probes > probe.model_constructions
    assert probe.cache_hits == probe.probes - probe.model_constructions
    assert probe.model_constructions * 5 <= probe.probes


def test_lp_targets_deadline_variant_is_valid_and_probes_feasibility():
    scheduler = make_scheduler("deadline-driven:lp_targets=true")
    instance = make_scenario("unrelated-stress")
    result = simulate(instance, scheduler)
    result.schedule.validate()
    probe = scheduler.replan_probe
    assert probe is not None
    assert probe.probes > 0
    assert probe.model_constructions <= probe.probes
    # A second replay through the same scheduler reuses the cached skeletons:
    # cross-run structures repeat even when one run's bisection never does.
    before = probe.model_constructions
    simulate(instance, scheduler)
    assert probe.model_constructions < before * 2
