"""Property-based tests for the probe-reuse search and the sparse lowering.

Two cross-validation invariants guard the performance subsystem:

* the exact milestone search and the naive ε-bisection must agree (within the
  bisection's precision) on random instances — the two searches share no
  code path beyond the :class:`FeasibilityProbe`, so agreement certifies the
  probe's parametric range solves;
* the sparse (CSR) and dense lowerings of random LPs must solve to the same
  optimum — the two lowerings share the triplet extraction but materialise
  and solve through different code paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Instance,
    Job,
    minimize_max_weighted_flow,
    minimize_max_weighted_flow_bisection,
)
from repro.lp.revised_simplex import solve_matrix_form as simplex_solve_form
from repro.lp.scipy_backend import solve_matrix_form as scipy_solve_form
from tests.reference.lp import LinearProgram, to_matrix_form

PRECISION = 1e-4

job_weights = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
release_dates = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
processing_times = st.floats(min_value=0.5, max_value=15.0, allow_nan=False)


@st.composite
def small_instance(draw):
    """A random unrelated instance with 1-4 jobs and 1-2 machines."""
    num_jobs = draw(st.integers(min_value=1, max_value=4))
    num_machines = draw(st.integers(min_value=1, max_value=2))
    jobs = [
        Job(
            name=f"J{j}",
            release_date=draw(release_dates),
            weight=draw(job_weights),
        )
        for j in range(num_jobs)
    ]
    costs = [
        [draw(processing_times) for _ in range(num_jobs)] for _ in range(num_machines)
    ]
    return Instance.from_costs(jobs, costs)


@st.composite
def small_lp(draw):
    """A random feasible, bounded LP with mixed constraint senses."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    num_cons = draw(st.integers(min_value=0, max_value=4))
    coeffs = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    costs = draw(st.lists(coeffs, min_size=num_vars, max_size=num_vars))
    rows = draw(
        st.lists(
            st.lists(coeffs, min_size=num_vars, max_size=num_vars),
            min_size=num_cons,
            max_size=num_cons,
        )
    )
    rhs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            min_size=num_cons,
            max_size=num_cons,
        )
    )
    senses = draw(
        st.lists(st.sampled_from(["<=", "=="]), min_size=num_cons, max_size=num_cons)
    )
    return costs, rows, rhs, senses


def _build_lp(costs, rows, rhs, senses) -> LinearProgram:
    lp = LinearProgram(sense="min")
    variables = lp.add_variables(len(costs), prefix="x", upper=10.0)
    for row, bound, sense in zip(rows, rhs, senses):
        expr = sum(coeff * var for coeff, var in zip(row, variables))
        if sense == "<=":
            lp.add_constraint(expr <= bound)
        else:
            # Keep equality rows trivially satisfiable: x_k == 0 is feasible
            # for every row through the origin.
            lp.add_constraint(expr == 0.0)
    lp.set_objective(sum(c * var for c, var in zip(costs, variables)))
    return lp


class TestSearchAgreement:
    @given(small_instance())
    @settings(max_examples=12, deadline=None)
    def test_bisection_agrees_with_milestone_search(self, instance):
        exact = minimize_max_weighted_flow(instance)
        approx, checks = minimize_max_weighted_flow_bisection(instance, precision=PRECISION)
        assert checks >= 1
        assert approx >= exact.objective - PRECISION
        assert approx <= exact.objective + max(10 * PRECISION, 1e-3 * exact.objective)


class TestLoweringAgreement:
    @given(small_lp())
    @settings(max_examples=25, deadline=None)
    def test_sparse_and_dense_lowerings_solve_identically(self, program):
        lp = _build_lp(*program)
        dense = scipy_solve_form(to_matrix_form(lp, sparse=False))
        sparse = scipy_solve_form(to_matrix_form(lp, sparse=True))
        assert dense.status == sparse.status
        if dense.is_optimal:
            assert abs(dense.objective_value - sparse.objective_value) <= 1e-7 * (
                1.0 + abs(dense.objective_value)
            )

    @given(small_lp())
    @settings(max_examples=10, deadline=None)
    def test_simplex_consumes_sparse_forms_via_densification(self, program):
        lp = _build_lp(*program)
        sparse_form = to_matrix_form(lp, sparse=True)
        via_simplex = simplex_solve_form(sparse_form)
        via_scipy = scipy_solve_form(sparse_form)
        assert via_simplex.status == via_scipy.status
        if via_scipy.is_optimal:
            assert abs(via_simplex.objective_value - via_scipy.objective_value) <= 1e-6 * (
                1.0 + abs(via_scipy.objective_value)
            )

    @given(small_lp())
    @settings(max_examples=25, deadline=None)
    def test_lowered_matrices_match(self, program):
        lp = _build_lp(*program)
        dense = to_matrix_form(lp, sparse=False)
        sparse = to_matrix_form(lp, sparse=True)
        np.testing.assert_allclose(sparse.a_ub.toarray(), dense.a_ub)
        np.testing.assert_allclose(sparse.a_eq.toarray(), dense.a_eq)
        np.testing.assert_allclose(sparse.b_ub, dense.b_ub)
        np.testing.assert_allclose(sparse.b_eq, dense.b_eq)
