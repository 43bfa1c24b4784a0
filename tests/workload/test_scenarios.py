"""Unit tests for the named workload scenarios, grids and seed spawning."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import WorkloadError
from repro.workload import (
    available_scenarios,
    instance_to_dict,
    make_scenario,
    scenario_grid,
    spawn_scenario_seeds,
)
from repro.workload.scenarios import ScenarioSpec


def _build_spec(spec: ScenarioSpec) -> dict:
    """Module-level so a process pool can pickle it."""
    return instance_to_dict(spec.build())


class TestScenarioRegistry:
    def test_expected_scenarios_registered(self):
        names = available_scenarios()
        for expected in ("small-cluster", "replicated-portal", "hotspot", "bursty-batch"):
            assert expected in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            make_scenario("does-not-exist")

    @pytest.mark.parametrize("name", ["small-cluster", "replicated-portal", "hotspot",
                                      "bursty-batch", "unrelated-stress"])
    def test_every_scenario_builds_a_valid_instance(self, name):
        instance = make_scenario(name, seed=1)
        assert instance.num_jobs > 0
        assert instance.num_machines > 0
        # Validity is enforced by the Instance constructor; exercising a
        # derived quantity confirms the object is usable.
        assert instance.trivial_upper_bound_flow() > 0

    def test_scenarios_are_deterministic_for_seed(self):
        first = make_scenario("small-cluster", seed=11)
        second = make_scenario("small-cluster", seed=11)
        assert first.costs.tolist() == second.costs.tolist()

    def test_replicated_portal_has_no_restrictions(self):
        instance = make_scenario("replicated-portal", seed=2)
        import numpy as np

        assert np.isfinite(instance.costs).all()

    def test_hotspot_has_restrictions(self):
        instance = make_scenario("hotspot", seed=3)
        import numpy as np

        assert not np.isfinite(instance.costs).all()


class TestSeedSpawning:
    def test_spawned_seeds_are_deterministic(self):
        first = spawn_scenario_seeds(42, "hotspot", 4)
        second = spawn_scenario_seeds(42, "hotspot", 4)
        assert first == second
        assert len(set(first)) == 4  # distinct streams

    def test_spawned_seeds_differ_across_scenarios_and_bases(self):
        assert spawn_scenario_seeds(42, "hotspot", 3) != spawn_scenario_seeds(
            42, "small-cluster", 3
        )
        assert spawn_scenario_seeds(42, "hotspot", 3) != spawn_scenario_seeds(
            43, "hotspot", 3
        )

    def test_seeds_do_not_depend_on_grid_composition(self):
        full = scenario_grid(
            ["small-cluster", "hotspot"], base_seed=7, seeds_per_scenario=3
        )
        alone = scenario_grid(["hotspot"], base_seed=7, seeds_per_scenario=3)
        assert [s.seed for s in full if s.scenario == "hotspot"] == [
            s.seed for s in alone
        ]

    def test_invalid_count_is_rejected(self):
        with pytest.raises(WorkloadError):
            spawn_scenario_seeds(1, "hotspot", 0)


class TestScenarioGrid:
    def test_grid_labels_match_sweep_conventions(self):
        specs = scenario_grid(["unrelated-stress"], seeds=(1, 2))
        assert [s.label for s in specs] == ["unrelated-stress#1", "unrelated-stress#2"]
        assert [s.label for s in scenario_grid(["unrelated-stress"])] == [
            "unrelated-stress"
        ]

    def test_grid_validation(self):
        with pytest.raises(WorkloadError):
            scenario_grid([])
        with pytest.raises(WorkloadError):
            scenario_grid(["unrelated-stress"], seeds=())
        with pytest.raises(WorkloadError):
            scenario_grid(["no-such-scenario"])
        with pytest.raises(WorkloadError):
            scenario_grid(["unrelated-stress"], seeds=(1,), base_seed=2)
        with pytest.raises(WorkloadError):
            scenario_grid(["unrelated-stress"], base_seed=2, seeds_per_scenario=0)

    def test_specs_are_lazy_and_buildable(self):
        specs = scenario_grid(["unrelated-stress"], base_seed=3, seeds_per_scenario=2)
        instances = [spec.build() for spec in specs]
        assert all(instance.num_jobs > 0 for instance in instances)

    def test_parallel_and_sequential_sweeps_yield_identical_instances(self):
        """The reproducibility satellite: materialising the same grid
        sequentially, or in a process pool under different chunkings, yields
        byte-identical instances."""
        specs = scenario_grid(
            ["unrelated-stress", "bursty-batch"], base_seed=13, seeds_per_scenario=3
        )
        sequential = [_build_spec(spec) for spec in specs]
        for chunksize in (1, 2):
            with ProcessPoolExecutor(max_workers=2) as pool:
                parallel = list(pool.map(_build_spec, specs, chunksize=chunksize))
            assert parallel == sequential

