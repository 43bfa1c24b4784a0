"""The matrix-first allocation builder against the frozen symbolic statement.

``build_allocation_model`` lowers the paper's allocation LPs straight to CSR.
Every form it emits must equal, bit for bit, what the expression DSL statement
of the same program (``tests/reference/symbolic_allocation.py``) lowers to through
``to_matrix_form(..., sparse=True)``: same column order, same row order, same
explicit entries, same right-hand sides, bounds and objective.  The builds are
captured from the production callers themselves — System (2) from
``check_deadline_feasibility`` and ``ReplanProbe``, System (3)/(5) from the
milestone search, Linear Program (1) from ``minimize_makespan`` — so the test
covers exactly the arguments those paths pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Affine,
    Instance,
    Job,
    check_deadline_feasibility,
    minimize_makespan,
    minimize_max_weighted_flow,
)
from repro.core import deadline, makespan, maxflow, replanning
from repro.core.formulations import build_allocation_model
from repro.core.intervals import build_constant_intervals
from repro.core.replanning import ReplanProbe
from repro.lp.backends import solve_form
from repro.workload import available_scenarios, make_scenario, random_unrelated_instance
from tests.reference.lp import LinearProgram, to_matrix_form
from tests.reference.symbolic_allocation import build_allocation_model as build_symbolic_model

SCENARIOS = available_scenarios()


def assert_same_lowering(alloc, reference) -> None:
    """``alloc.form`` equals the sparse lowering of the symbolic ``reference``."""
    expected = to_matrix_form(reference.model, sparse=True)
    actual = alloc.form
    for block in ("a_ub", "a_eq"):
        got, want = getattr(actual, block), getattr(expected, block)
        assert got.shape == want.shape, block
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype, (block, part)
            assert a.tobytes() == b.tobytes(), (block, part)
    for vector in ("c", "b_ub", "b_eq", "bounds"):
        a, b = getattr(actual, vector), getattr(expected, vector)
        assert a.dtype == b.dtype and a.shape == b.shape, vector
        assert a.tobytes() == b.tobytes(), vector  # signed zeros included
    assert actual.objective_constant == expected.objective_constant
    assert actual.objective_sign == expected.objective_sign
    assert list(alloc.variables.items()) == [
        (key, var.index) for key, var in reference.variables.items()
    ]
    if reference.objective_variable is None:
        assert alloc.objective_column is None
    else:
        assert alloc.objective_column == reference.objective_variable.index


@pytest.fixture
def checked_builds(monkeypatch):
    """Route every production build through the symbolic comparison."""
    builds = []

    def checked(*args, **kwargs):
        alloc = build_allocation_model(*args, **kwargs)
        assert_same_lowering(alloc, build_symbolic_model(*args, **kwargs))
        builds.append(alloc)
        return alloc

    for module in (deadline, makespan, maxflow, replanning):
        monkeypatch.setattr(module, "build_allocation_model", checked)
    return builds


def _loose_deadlines(instance: Instance):
    """Per-job deadlines a few fastest-machine processing times after release."""
    return [
        job.release_date + (2.0 + j % 3) * instance.min_cost(j)
        for j, job in enumerate(instance.jobs)
    ]


@pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestProductionBuildsMatchTheSymbolicStatement:
    def test_system_2_constant_intervals(self, checked_builds, scenario, preemptive):
        instance = make_scenario(scenario, seed=0)
        deadlines = _loose_deadlines(instance)
        check_deadline_feasibility(instance, deadlines, preemptive=preemptive)
        ReplanProbe(preemptive=preemptive).check(instance, deadlines)
        assert len(checked_builds) == 2

    def test_system_3_milestone_ranges(self, checked_builds, scenario, preemptive):
        instance = make_scenario(scenario, seed=1)
        minimize_max_weighted_flow(instance, preemptive=preemptive)
        assert checked_builds
        for alloc in checked_builds:
            # F leads every resource/job-window row, even where its slope is 0.
            a_ub = alloc.form.a_ub
            assert alloc.objective_column == 0
            assert (a_ub.indices[a_ub.indptr[:-1]] == 0).all()

    def test_lp_1_makespan(self, checked_builds, scenario, preemptive):
        instance = make_scenario(scenario, seed=2)
        minimize_makespan(instance, preemptive=preemptive)
        assert len(checked_builds) == 1


@pytest.fixture
def partial_instance() -> Instance:
    """Machine 1 cannot process job B (infinite cost)."""
    jobs = [Job("A", 0.0, weight=1.0), Job("B", 1.0, weight=2.0), Job("C", 1.0)]
    costs = [[4.0, 2.0, 3.0], [8.0, float("inf"), 1.0]]
    return Instance.from_costs(jobs, costs)


@pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])
class TestCornerCases:
    def test_job_without_an_allowed_variable(self, partial_instance, preemptive):
        # Job C's deadline equals its release date: no interval fits, so its
        # completion row is the infeasible ``0 == -1``.
        deadlines = [Affine.const(d) for d in (6.0, 9.0, 1.0)]
        intervals = build_constant_intervals([0.0, 1.0, 1.0, 6.0, 9.0, 1.0])
        kwargs = dict(deadlines=deadlines, preemptive=preemptive)
        alloc = build_allocation_model(partial_instance, intervals, **kwargs)
        assert_same_lowering(alloc, build_symbolic_model(partial_instance, intervals, **kwargs))
        assert not any(key[1] == 2 for key in alloc.variables)
        assert alloc.form.b_eq.tolist() == [1.0, 1.0, -1.0]
        assert alloc.form.a_eq[2].nnz == 0
        assert solve_form(alloc.form).is_infeasible

    def test_machine_with_infinite_cost(self, partial_instance, preemptive):
        intervals = build_constant_intervals([0.0, 1.0, 10.0])
        kwargs = dict(deadlines=None, preemptive=preemptive)
        alloc = build_allocation_model(partial_instance, intervals, **kwargs)
        assert_same_lowering(alloc, build_symbolic_model(partial_instance, intervals, **kwargs))
        assert not any(key[:2] == (1, 1) for key in alloc.variables)
        assert np.isfinite(alloc.form.a_ub.data).all()


def test_production_paths_never_state_a_symbolic_model(monkeypatch):
    """The scheduling LPs are built without one ``LinearProgram`` variable."""

    def poisoned(self, *args, **kwargs):
        raise AssertionError("a production path built a symbolic LP")

    monkeypatch.setattr(LinearProgram, "add_variable", poisoned)
    instance = random_unrelated_instance(8, 3, seed=3)
    deadlines = _loose_deadlines(instance)
    for preemptive in (False, True):
        minimize_max_weighted_flow(instance, preemptive=preemptive)
        minimize_makespan(instance, preemptive=preemptive)
        for backend in ("scipy", "revised"):
            ReplanProbe(preemptive=preemptive, backend=backend).check(instance, deadlines)
            check_deadline_feasibility(
                instance, deadlines, preemptive=preemptive, backend=backend
            )
