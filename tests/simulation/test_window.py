"""The zero-copy ``InstanceView`` answers like the instance it stands for.

Policies read the active window through the instance protocol; these tests
fill a :class:`StreamWindow` from a replayed instance and compare every
accessor of its view with the same accessor of a real :class:`Instance`,
before and after a compaction.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Instance, Job
from repro.simulation.window import StreamWindow
from repro.workload import random_restricted_instance, replay_stream


@pytest.fixture
def instance() -> Instance:
    # Databank restrictions leave forbidden (infinite-cost) pairs in the block.
    return random_restricted_instance(6, 3, seed=5, num_databanks=2)


def _window(instance: Instance) -> StreamWindow:
    stream = replay_stream(instance)
    window = StreamWindow(stream.machines)
    window.admit_batch(list(stream.jobs()))
    return window


def test_view_shape_metadata_and_costs_match_the_instance(instance):
    view = _window(instance).view
    assert (view.num_jobs, view.num_machines) == (instance.num_jobs, instance.num_machines)
    assert view.release_dates == list(instance.release_dates)
    assert view.weights == list(instance.weights)
    assert np.array_equal(view.costs, instance.costs)
    assert view.describe() == instance.describe()


def test_view_index_lookups_match_the_instance(instance):
    view = _window(instance).view
    for job in instance.jobs:
        assert view.job_index(job.name) == instance.job_index(job.name)
    for machine in instance.machines:
        assert view.machine_index(machine.name) == instance.machine_index(machine.name)
    with pytest.raises(KeyError, match="no job named"):
        view.job_index("missing")
    with pytest.raises(KeyError, match="no machine named"):
        view.machine_index("missing")


def test_view_eligibility_matches_the_instance(instance):
    view = _window(instance).view
    assert any(not math.isfinite(c) for c in instance.costs.ravel())
    for j in range(instance.num_jobs):
        assert view.eligible_machines(j) == list(instance.eligible_machines(j))
    for i in range(instance.num_machines):
        assert view.eligible_jobs(i) == list(instance.eligible_jobs(i))


def test_view_flow_bounds_match_the_instance(instance):
    view = _window(instance).view
    for j in range(instance.num_jobs):
        assert view.aggregate_rate(j) == instance.aggregate_rate(j)
        assert view.lower_bound_flow(j) == instance.lower_bound_flow(j)
    assert view.trivial_upper_bound_flow() == instance.trivial_upper_bound_flow()


def test_view_derived_instances_match_the_instance(instance):
    view = _window(instance).view
    assert view.to_dict() == instance.to_dict()
    assert view.with_stretch_weights().to_dict() == instance.with_stretch_weights().to_dict()
    assert view.restricted_to_jobs([0, 2]).to_dict() == instance.restricted_to_jobs([0, 2]).to_dict()


def test_materialised_view_is_a_copy():
    instance = Instance.from_costs([Job("a", 0.0), Job("b", 1.0)], [[2.0, 3.0]])
    window = _window(instance)
    snapshot = window.view.materialise()
    window.costs_base[0, 0] = 99.0
    assert snapshot.costs[0, 0] == 2.0
    assert window.view.cost(0, 0) == 99.0


def test_compaction_keeps_the_view_equal_to_the_survivors(instance):
    window = _window(instance)
    window.live[1] = window.live[4] = False
    mapping = window.compact()
    assert mapping == {0: 0, 2: 1, 3: 2, 5: 3}
    survivors = instance.restricted_to_jobs([0, 2, 3, 5])
    assert len(window) == 4
    assert window.view.to_dict() == survivors.to_dict()
    assert window.costs_rows == survivors.costs.tolist()
    fastest, weights, releases = window.view.job_lists
    assert (fastest, weights, releases) == tuple(survivors.job_lists)


def test_capacity_grows_past_the_initial_block():
    instance = Instance.from_costs(
        [Job(f"J{k}", float(k)) for k in range(70)], [[1.0 + k for k in range(70)]]
    )
    window = _window(instance)
    assert window.capacity >= 70
    assert np.array_equal(window.view.costs, instance.costs)
