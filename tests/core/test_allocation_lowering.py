"""Structural facts of the matrix-first allocation builder.

``build_allocation_model`` lowers the paper's allocation LPs straight to CSR.
The exact bytes of the forms the production paths build — System (2) from
``check_deadline_feasibility`` and ``ReplanProbe``, System (3)/(5) from the
milestone search, Linear Program (1) from ``minimize_makespan`` — and of the
two corner cases below are pinned by the golden corpus's ``lowering/*``
entries (``tests/golden/regenerate.py``): an edit that moves a row, a column
or a signed zero fails there.  This module checks, on the same instances,
the structure those forms must have and that their values state the paper's
constraints.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Affine, Instance, Job, minimize_max_weighted_flow
from repro.core import check_deadline_feasibility, minimize_makespan
from repro.core import deadline, makespan, maxflow, replanning
from repro.core.formulations import build_allocation_model
from repro.core.intervals import build_constant_intervals
from repro.lp.backends import solve_form
from repro.workload import available_scenarios, make_scenario

SCENARIOS = available_scenarios()
MODELS = pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])


@contextmanager
def captured_builds():
    """Record every build the production paths make."""
    builds = []

    def captured(*args, **kwargs):
        alloc = build_allocation_model(*args, **kwargs)
        builds.append(alloc)
        return alloc

    modules = (deadline, makespan, maxflow, replanning)
    for module in modules:
        module.build_allocation_model = captured
    try:
        yield builds
    finally:
        for module in modules:
            module.build_allocation_model = build_allocation_model


def _system_2(instance, preemptive):
    deadlines = [
        job.release_date + (2.0 + j % 3) * instance.min_cost(j)
        for j, job in enumerate(instance.jobs)
    ]
    check_deadline_feasibility(instance, deadlines, preemptive=preemptive)
    replanning.ReplanProbe(preemptive=preemptive).check(instance, deadlines)


#: Program → (scenario seed, production path), as the corpus producer runs them.
PROGRAMS = {
    "system-2": (0, _system_2),
    "system-3": (1, lambda instance, preemptive: minimize_max_weighted_flow(
        instance, preemptive=preemptive)),
    "lp-1": (2, lambda instance, preemptive: minimize_makespan(
        instance, preemptive=preemptive)),
}


@functools.lru_cache(maxsize=None)
def production_builds(program: str, scenario: str, preemptive: bool):
    """The builds one production path makes on the corpus's instance, in order."""
    seed, run = PROGRAMS[program]
    with captured_builds() as builds:
        run(make_scenario(scenario, seed), preemptive)
    assert builds
    return tuple(builds)


def assert_states_the_papers_constraints(alloc, preemptive: bool) -> None:
    """Restate every row of ``alloc.form`` from its variable map and compare.

    Columns are ``F`` (when present) then each allowed ``alpha[i, j, t]``
    once, bounded by ``[0, 1]``.  The ``<=`` rows are the resource rows by
    ``(t, i)`` then, preemptive only, the job-window rows by ``(t, j)``:
    ``sum c_{i,j} alpha - slope_t F <= constant_t``.  The ``==`` rows are
    ``sum_{i,t} alpha[i, j, t] == 1`` per job, ``0 == -1`` for a job with no
    variable.
    """
    form, costs = alloc.form, alloc.instance.costs
    has_f = alloc.objective_column is not None
    offset = 1 if has_f else 0
    t, j, i = np.nonzero(alloc.allowed)
    assert set(alloc.variables) == set(zip(i.tolist(), j.tolist(), t.tolist()))
    assert sorted(alloc.variables.values()) == list(range(offset, form.num_variables))
    assert (form.bounds[offset:] == [0.0, 1.0]).all()

    rows = {}
    for (i, j, t), column in alloc.variables.items():
        rows.setdefault(("resource", t, i), {})[column] = costs[i, j]
        if preemptive:
            rows.setdefault(("window", t, j), {})[column] = costs[i, j]
    keys = sorted(rows)  # "resource" sorts before "window"
    a_ub = np.zeros((len(keys), form.num_variables))
    b_ub = np.zeros(len(keys))
    for r, key in enumerate(keys):
        length = alloc.intervals[key[1]].length()
        for column, cost in rows[key].items():
            a_ub[r, column] = cost
        if has_f:
            a_ub[r, alloc.objective_column] = -length.slope
        b_ub[r] = length.constant
    np.testing.assert_array_equal(form.a_ub.toarray(), a_ub)
    np.testing.assert_array_equal(form.b_ub, b_ub)

    a_eq = np.zeros((alloc.instance.num_jobs, form.num_variables))
    for (i, j, t), column in alloc.variables.items():
        a_eq[j, column] = 1.0
    np.testing.assert_array_equal(form.a_eq.toarray(), a_eq)
    np.testing.assert_array_equal(form.b_eq, np.where(a_eq.any(axis=1), 1.0, -1.0))
    assert sp.isspmatrix_csr(form.a_ub) and sp.isspmatrix_csr(form.a_eq)


@MODELS
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestProductionBuildsStateThePapersConstraints:
    def test_system_2_constant_intervals(self, scenario, preemptive):
        for alloc in production_builds("system-2", scenario, preemptive):
            assert_states_the_papers_constraints(alloc, preemptive)

    def test_system_3_milestone_ranges(self, scenario, preemptive):
        for alloc in production_builds("system-3", scenario, preemptive):
            assert_states_the_papers_constraints(alloc, preemptive)

    def test_lp_1_makespan(self, scenario, preemptive):
        for alloc in production_builds("lp-1", scenario, preemptive):
            assert_states_the_papers_constraints(alloc, preemptive)


@MODELS
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_f_leads_every_row_of_the_milestone_range_lps(scenario, preemptive):
    for alloc in production_builds("system-3", scenario, preemptive):
        # F leads every resource/job-window row, even where its slope is 0.
        a_ub = alloc.form.a_ub
        assert alloc.objective_column == 0
        assert (a_ub.indices[a_ub.indptr[:-1]] == 0).all()


@MODELS
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_system_2_is_a_zero_objective_feasibility_program(scenario, preemptive):
    # The revised simplex decides zero-objective programs only.
    for alloc in production_builds("system-2", scenario, preemptive):
        assert alloc.objective_column is None
        assert not alloc.form.c.any()
        assert (alloc.form.b_ub > 0.0).all()


@MODELS
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_the_replan_probe_states_the_deadline_checks_system_2(scenario, preemptive):
    checked, probed = production_builds("system-2", scenario, preemptive)
    assert checked.variables == probed.variables
    for block in ("a_ub", "a_eq"):
        assert (getattr(checked.form, block) != getattr(probed.form, block)).nnz == 0
    for vector in ("c", "b_ub", "b_eq", "bounds"):
        np.testing.assert_array_equal(getattr(checked.form, vector), getattr(probed.form, vector))


@MODELS
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_lp_1_minimises_its_makespan_column(scenario, preemptive):
    (alloc,) = production_builds("lp-1", scenario, preemptive)
    form = alloc.form
    assert alloc.objective_column == 0
    np.testing.assert_array_equal(form.c, np.eye(form.num_variables)[0])
    assert form.bounds[0].tolist() == [0.0, np.inf]
    assert (form.a_ub.indices[form.a_ub.indptr[:-1]] == 0).all()


@pytest.fixture
def partial_instance() -> Instance:
    """Machine 1 cannot process job B (infinite cost)."""
    jobs = [Job("A", 0.0, weight=1.0), Job("B", 1.0, weight=2.0), Job("C", 1.0)]
    costs = [[4.0, 2.0, 3.0], [8.0, float("inf"), 1.0]]
    return Instance.from_costs(jobs, costs)


def test_an_empty_objective_range_is_rejected(partial_instance):
    intervals = build_constant_intervals([0.0, 1.0, 10.0])
    with pytest.raises(ValueError, match="variable 'F' has empty domain"):
        build_allocation_model(partial_instance, intervals, objective_bounds=(2.0, 1.0))


def test_an_objective_dependent_length_needs_an_objective_variable(partial_instance):
    intervals = build_constant_intervals([0.0, 1.0, 10.0])
    stretched = [replace(step, upper=step.upper + Affine(0.0, 1.0)) for step in intervals]
    with pytest.raises(ValueError, match="no objective variable was created"):
        build_allocation_model(partial_instance, stretched)


#: Corner case → (epochal times, deadlines).  In the first, job C's deadline
#: equals its release date, so no interval fits it.
CORNERS = {
    "no-allowed-interval": ([0.0, 1.0, 1.0, 6.0, 9.0, 1.0], (6.0, 9.0, 1.0)),
    "infinite-cost": ([0.0, 1.0, 10.0], None),
}


def _corner_build(instance, name, preemptive):
    times, deadlines = CORNERS[name]
    if deadlines is not None:
        deadlines = [Affine.const(d) for d in deadlines]
    return build_allocation_model(
        instance, build_constant_intervals(times), deadlines=deadlines, preemptive=preemptive
    )


@MODELS
class TestCornerCases:
    def test_job_without_an_allowed_variable(self, partial_instance, preemptive):
        # Job C's completion row is the infeasible ``0 == -1``.
        alloc = _corner_build(partial_instance, "no-allowed-interval", preemptive)
        assert not any(key[1] == 2 for key in alloc.variables)
        assert alloc.form.b_eq.tolist() == [1.0, 1.0, -1.0]
        assert alloc.form.a_eq[2].nnz == 0
        assert solve_form(alloc.form).is_infeasible

    def test_machine_with_infinite_cost(self, partial_instance, preemptive):
        alloc = _corner_build(partial_instance, "infinite-cost", preemptive)
        assert not any(key[:2] == (1, 1) for key in alloc.variables)
        assert np.isfinite(alloc.form.a_ub.data).all()

    @pytest.mark.parametrize("name", sorted(CORNERS))
    def test_rows_state_the_papers_constraints(self, partial_instance, preemptive, name):
        alloc = _corner_build(partial_instance, name, preemptive)
        assert_states_the_papers_constraints(alloc, preemptive)
