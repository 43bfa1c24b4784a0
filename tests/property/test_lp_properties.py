"""Property-based tests of the LP layer (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.backends import solve_form
from tests.reference.forms import matrix_form

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_lp(draw):
    """A random bounded-feasible LP: minimise c.x over box-bounded x with <= rows.

    The feasible region always contains the origin (rhs >= 0) and is bounded
    (box bounds), so every program has an optimum.
    """
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


def _solve(costs, rows, rhs):
    form = matrix_form(
        [(row, "<=", bound) for row, bound in zip(rows, rhs)], c=costs, bounds=(0.0, 10.0)
    )
    return solve_form(form, "scipy")


class TestLPProperties:
    @given(small_lp(), st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_objective_scaling_scales_optimum(self, problem, factor):
        """Scaling the objective by a positive factor scales the optimal value."""
        costs, rows, rhs = problem
        base = _solve(costs, rows, rhs)
        scaled = _solve([factor * c for c in costs], rows, rhs)
        assert np.isclose(scaled.objective_value, factor * base.objective_value, atol=1e-6)
