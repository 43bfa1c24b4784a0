"""Property-based tests of the LP layer (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import LPStatus
from tests.reference.lp import LinearProgram

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_lp(draw):
    """A random bounded-feasible LP: minimise c.x over box-bounded x with <= rows."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    num_cons = draw(st.integers(min_value=0, max_value=4))
    costs = draw(st.lists(finite_floats, min_size=num_vars, max_size=num_vars))
    rows = draw(
        st.lists(
            st.lists(finite_floats, min_size=num_vars, max_size=num_vars),
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
    return costs, rows, rhs


def _build(costs, rows, rhs) -> LinearProgram:
    lp = LinearProgram(sense="min")
    variables = lp.add_variables(len(costs), prefix="x", upper=10.0)
    for row, bound in zip(rows, rhs):
        expr = sum(coefficient * var for coefficient, var in zip(row, variables))
        lp.add_constraint(expr <= bound)
    lp.set_objective(sum(c * v for c, v in zip(costs, variables)))
    return lp


class TestLPProperties:
    @given(small_lp())
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_status_and_value(self, problem):
        """The in-house simplex and HiGHS must agree on every random program.

        The feasible region always contains the origin (rhs >= 0) and is
        bounded (box bounds), so the program is feasible and bounded; both
        backends must find the same optimal value.
        """
        costs, rows, rhs = problem
        lp = _build(costs, rows, rhs)
        scipy_solution = lp.solve(backend="scipy")
        simplex_solution = lp.solve(backend="simplex")
        assert scipy_solution.status is LPStatus.OPTIMAL
        assert simplex_solution.status is LPStatus.OPTIMAL
        assert abs(scipy_solution.objective_value - simplex_solution.objective_value) <= 1e-5 * (
            1.0 + abs(scipy_solution.objective_value)
        )

    @given(small_lp())
    @settings(max_examples=40, deadline=None)
    def test_reported_solutions_are_feasible(self, problem):
        """Both backends must return points satisfying every constraint and bound."""
        costs, rows, rhs = problem
        lp = _build(costs, rows, rhs)
        for backend in ("scipy", "simplex"):
            solution = lp.solve(backend=backend)
            assert solution.status is LPStatus.OPTIMAL
            assert lp.check_solution(solution.values, tol=1e-6) == []

    @given(small_lp(), st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_objective_scaling_scales_optimum(self, problem, factor):
        """Scaling the objective by a positive factor scales the optimal value."""
        costs, rows, rhs = problem
        base = _build(costs, rows, rhs).solve()
        scaled = _build([factor * c for c in costs], rows, rhs).solve()
        assert np.isclose(scaled.objective_value, factor * base.objective_value, atol=1e-6)
