"""Property-based tests of the LP layer (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lp.backends import solve_form
from tests.reference.forms import matrix_form

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)

#: HiGHS's default dual feasibility tolerance: a cost below it counts as zero.
HIGHS_DUAL_TOLERANCE = 1e-7

#: Width of the ``[0, 10]`` box every variable of ``_solve`` lives in.
BOX_WIDTH = 10.0


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
        [(row, "<=", bound) for row, bound in zip(rows, rhs)], c=costs, bounds=(0.0, BOX_WIDTH)
    )
    return solve_form(form, "scipy")


class TestLPProperties:
    @given(small_lp(), st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    @example(([2.0**-24, 0.0, 0.0, 0.0], [[0.0] * 4, [-1.0, 0.0, 0.0, 1.0]], [0.0, 0.0]), 2.0)
    @settings(max_examples=25, deadline=None)
    def test_objective_scaling_scales_optimum(self, problem, factor):
        """Scaling the objective by a positive factor scales the optimal value.

        HiGHS may treat a cost below its dual tolerance as zero and stop at
        either end of that variable's box, so each solve's optimum is exact
        only to ``tolerance × box width`` per variable.  The scaled solve
        and ``factor ×`` the base one together miss by at most
        ``(1 + factor)`` times that.
        """
        costs, rows, rhs = problem
        base = _solve(costs, rows, rhs)
        scaled = _solve([factor * c for c in costs], rows, rhs)
        atol = HIGHS_DUAL_TOLERANCE * BOX_WIDTH * len(costs) * (1.0 + factor)
        assert np.isclose(scaled.objective_value, factor * base.objective_value, atol=atol)
