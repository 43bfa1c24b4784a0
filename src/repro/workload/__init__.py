"""Workload generation, named scenarios and trace I/O (substrate S12)."""

from .generators import (
    ArrivalProcess,
    random_restricted_instance,
    random_unrelated_instance,
)
from .scenarios import (
    Scenario,
    ScenarioSpec,
    available_scenarios,
    make_scenario,
    scenario_grid,
    spawn_scenario_seeds,
)
from .streams import (
    ArrivalEvent,
    StreamSpec,
    WorkloadStream,
    open_stream,
    replay_stream,
    spawn_stream_seeds,
)
from .traces import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [
    "ArrivalEvent",
    "ArrivalProcess",
    "Scenario",
    "ScenarioSpec",
    "StreamSpec",
    "WorkloadStream",
    "open_stream",
    "replay_stream",
    "spawn_stream_seeds",
    "available_scenarios",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_schedule",
    "make_scenario",
    "scenario_grid",
    "spawn_scenario_seeds",
    "random_restricted_instance",
    "random_unrelated_instance",
    "save_instance",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
]
