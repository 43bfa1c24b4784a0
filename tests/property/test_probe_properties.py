"""Property-based tests for the probe-reuse search and the sparse lowering.

Two cross-validation invariants guard the performance subsystem:

* the exact milestone search and the naive ε-bisection must agree (within the
  bisection's precision) on random instances — the two searches share no
  code path beyond the :class:`FeasibilityProbe`, so agreement certifies the
  probe's parametric range solves;
* the CSR and dense forms of random LPs must solve to the same optimum, and
  the revised simplex must reach HiGHS's verdict on their zero-objective
  twins.
"""

from __future__ import annotations

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
from tests.reference.forms import matrix_form, violations

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


def _build_form(costs, rows, rhs, senses, sparse=True):
    # Equality rows go through the origin, so x == 0 satisfies each of them.
    return matrix_form(
        [
            (row, sense, bound if sense == "<=" else 0.0)
            for row, bound, sense in zip(rows, rhs, senses)
        ],
        c=costs,
        bounds=(0.0, 10.0),
        sparse=sparse,
    )


class TestSearchAgreement:
    @given(small_instance())
    @settings(max_examples=12, deadline=None)
    def test_bisection_agrees_with_milestone_search(self, instance):
        exact = minimize_max_weighted_flow(instance)
        approx, checks = minimize_max_weighted_flow_bisection(instance, precision=PRECISION)
        assert checks >= 1
        assert approx >= exact.objective - PRECISION
        assert approx <= exact.objective + max(10 * PRECISION, 1e-3 * exact.objective)


class TestFormAgreement:
    @given(small_lp())
    @settings(max_examples=25, deadline=None)
    def test_csr_and_dense_forms_solve_identically(self, program):
        dense = scipy_solve_form(_build_form(*program, sparse=False))
        sparse = scipy_solve_form(_build_form(*program))
        assert dense.status == sparse.status
        if dense.is_optimal:
            assert abs(dense.objective_value - sparse.objective_value) <= 1e-7 * (
                1.0 + abs(dense.objective_value)
            )

    @given(small_lp())
    @settings(max_examples=10, deadline=None)
    def test_revised_simplex_decides_sparse_forms_like_scipy(self, program):
        # The revised simplex takes zero-objective programs: drop the costs,
        # snap the data to a 1/4 lattice (so no verdict sits within a solver
        # tolerance of the boundary) and move the <= rows off the origin.
        costs, rows, rhs, senses = program
        rows = [[round(4 * c) / 4 for c in row] for row in rows]
        rhs = [round(4 * b) / 4 - 5.0 for b in rhs]
        sparse_form = _build_form([0.0] * len(costs), rows, rhs, senses)
        via_simplex = simplex_solve_form(sparse_form)
        via_scipy = scipy_solve_form(sparse_form)
        assert via_simplex.status == via_scipy.status
        if via_simplex.is_optimal:
            assert violations(sparse_form, via_simplex.values) == []
