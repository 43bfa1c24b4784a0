"""Cross-validation tests of the revised-simplex backend on zero-objective programs.

The revised simplex decides feasibility (``c == 0``) programs only, so each
test here checks its verdict against HiGHS and that every feasible answer is
a point of the program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import LPStatus
from repro.lp.backends import solve_form
from tests.reference.forms import matrix_form, violations

INF = float("inf")


def _assert_agrees_with_scipy(form, expected: LPStatus):
    scipy_solution = solve_form(form, "scipy")
    simplex_solution = solve_form(form, "revised")
    assert scipy_solution.status is simplex_solution.status is expected
    if expected is LPStatus.OPTIMAL:
        assert violations(form, simplex_solution.values) == []
    return simplex_solution


class TestSimplexBasics:
    def test_greater_equal_rows(self):
        form = matrix_form([([1, 2], ">=", 4), ([3, 1], ">=", 6)])
        _assert_agrees_with_scipy(form, LPStatus.OPTIMAL)

    def test_equality_constraints(self):
        form = matrix_form([([1, 1, 1], "==", 6), ([1, -1, 0], "==", 1)])
        _assert_agrees_with_scipy(form, LPStatus.OPTIMAL)

    def test_infeasible_detected(self):
        form = matrix_form([([1], ">=", 3)], bounds=(0.0, 1.0))
        assert solve_form(form, "revised").status is LPStatus.INFEASIBLE

    def test_upper_bounded_variables(self):
        for need, expected in ((6.0, LPStatus.OPTIMAL), (8.0, LPStatus.INFEASIBLE)):
            form = matrix_form(
                [([1, 1], ">=", need), ([1, 2], "<=", 11)], bounds=[(0.0, 3.0), (0.0, 4.0)]
            )
            _assert_agrees_with_scipy(form, expected)

    def test_free_variables(self):
        # Only a negative x satisfies the rows, so x must leave zero downwards.
        form = matrix_form(
            [([1, 1], "<=", -3), ([1, 0], ">=", -10)], bounds=[(-INF, INF), (0.0, INF)]
        )
        solution = _assert_agrees_with_scipy(form, LPStatus.OPTIMAL)
        assert solution.values[0] <= -3.0 + 1e-9

    def test_negative_lower_bounds(self):
        for cap, expected in ((-2.0, LPStatus.OPTIMAL), (-5.0, LPStatus.INFEASIBLE)):
            form = matrix_form([([1], "<=", cap)], bounds=(-4.0, 4.0))
            _assert_agrees_with_scipy(form, expected)

    def test_degenerate_constraints_do_not_cycle(self):
        # The classic cycling example's rows, all through the origin, plus a
        # row that pushes x0 off it: the solve must terminate at a point.
        form = matrix_form(
            [
                ([0.25, -8, -1, 9], "<=", 0),
                ([0.5, -12, -0.5, 3], "<=", 0),
                ([0, 0, 1, 0], "<=", 1),
                ([1, 0, 0, 0], ">=", 1),
            ]
        )
        _assert_agrees_with_scipy(form, LPStatus.OPTIMAL)


class TestSimplexRandomCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_problems_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 6))
        num_cons = int(rng.integers(1, 6))
        rows = []
        for _ in range(num_cons):
            coefficients = rng.uniform(-2, 2, size=num_vars)
            rows.append((coefficients, "<=", float(rng.uniform(-10, 10))))
        form = matrix_form(rows, bounds=(0.0, 10.0))
        _assert_agrees_with_scipy(form, solve_form(form, "scipy").status)


class TestNearZeroCoefficients:
    """Regression: sub-tolerance matrix entries must not poison a pivot.

    A 1e-10 constraint coefficient used to survive into the legacy tableau,
    where a pivot on it divided the row by a near-zero value and amplified
    rounding dirt into a variable value of -1.1e-5 — outside its bounds.
    Both in-house solvers drop such entries (HiGHS does so in presolve).
    """

    def test_hypothesis_found_tiny_coefficient_example(self):
        # The rows of the hypothesis draw; the first now cuts off the origin.
        form = matrix_form(
            [([1.0, 0.0, -1.0, -1.5], "<=", -3.0), ([1.0, 1e-10, 0.0625, 0.0], "<=", 0.0)],
            bounds=(0.0, 10.0),
        )
        _assert_agrees_with_scipy(form, LPStatus.OPTIMAL)

    def test_dirt_negative_ratios_never_pull_variables_negative(self):
        # A degenerate row whose rhs is exact zero beside one that forces the
        # tiny-coefficient column up: no value may leave its bounds.
        form = matrix_form(
            [([1, 1e-10, 0.0625], "<=", 0), ([0, 1, 1], ">=", 3)], bounds=(0.0, 5.0)
        )
        solution = _assert_agrees_with_scipy(form, LPStatus.OPTIMAL)
        assert min(solution.values.values()) >= 0.0
