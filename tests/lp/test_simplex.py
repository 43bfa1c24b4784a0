"""Cross-validation tests of the revised-simplex backend on zero-objective programs.

The revised simplex decides feasibility (``c == 0``) programs only, so each
test here checks its verdict against HiGHS and that every feasible answer is
a point of the program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import LPStatus
from tests.reference.lp import LinearProgram


def _assert_agrees_with_scipy(lp: LinearProgram, expected: LPStatus):
    scipy_solution = lp.solve(backend="scipy")
    simplex_solution = lp.solve(backend="simplex")
    assert scipy_solution.status is simplex_solution.status is expected
    if expected is LPStatus.OPTIMAL:
        assert lp.check_solution(simplex_solution.values, tol=1e-6) == []
    return simplex_solution


class TestSimplexBasics:
    def test_greater_equal_rows(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(x + 2 * y >= 4)
        lp.add_constraint(3 * x + y >= 6)
        _assert_agrees_with_scipy(lp, LPStatus.OPTIMAL)

    def test_equality_constraints(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        z = lp.add_variable("z")
        lp.add_constraint(x + y + z == 6)
        lp.add_constraint(x - y == 1)
        _assert_agrees_with_scipy(lp, LPStatus.OPTIMAL)

    def test_infeasible_detected(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.add_constraint(x >= 3)
        assert lp.solve(backend="simplex").status is LPStatus.INFEASIBLE

    def test_upper_bounded_variables(self):
        for need, expected in ((6.0, LPStatus.OPTIMAL), (8.0, LPStatus.INFEASIBLE)):
            lp = LinearProgram()
            x = lp.add_variable("x", upper=3.0)
            y = lp.add_variable("y", upper=4.0)
            lp.add_constraint(x + y >= need)
            lp.add_constraint(x + 2 * y <= 11)
            _assert_agrees_with_scipy(lp, expected)

    def test_free_variables(self):
        # Only a negative x satisfies the rows, so x must leave zero downwards.
        lp = LinearProgram()
        x = lp.add_variable("x", lower=float("-inf"))
        y = lp.add_variable("y")
        lp.add_constraint(x + y <= -3)
        lp.add_constraint(x >= -10)
        solution = _assert_agrees_with_scipy(lp, LPStatus.OPTIMAL)
        assert solution.values[0] <= -3.0 + 1e-9

    def test_negative_lower_bounds(self):
        for cap, expected in ((-2.0, LPStatus.OPTIMAL), (-5.0, LPStatus.INFEASIBLE)):
            lp = LinearProgram()
            x = lp.add_variable("x", lower=-4.0, upper=4.0)
            lp.add_constraint(x <= cap)
            _assert_agrees_with_scipy(lp, expected)

    def test_degenerate_constraints_do_not_cycle(self):
        # The classic cycling example's rows, all through the origin, plus a
        # row that pushes x0 off it: the solve must terminate at a point.
        lp = LinearProgram()
        x = lp.add_variables(4, prefix="x")
        lp.add_constraint(0.25 * x[0] - 8 * x[1] - x[2] + 9 * x[3] <= 0)
        lp.add_constraint(0.5 * x[0] - 12 * x[1] - 0.5 * x[2] + 3 * x[3] <= 0)
        lp.add_constraint(x[2] <= 1)
        lp.add_constraint(x[0] >= 1)
        _assert_agrees_with_scipy(lp, LPStatus.OPTIMAL)


class TestSimplexRandomCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_problems_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 6))
        num_cons = int(rng.integers(1, 6))
        lp = LinearProgram()
        variables = lp.add_variables(num_vars, prefix="x", upper=10.0)
        for _ in range(num_cons):
            coefficients = rng.uniform(-2, 2, size=num_vars)
            rhs = float(rng.uniform(-10, 10))
            expr = sum(float(c) * v for c, v in zip(coefficients, variables))
            lp.add_constraint(expr <= rhs)
        reference = lp.solve(backend="scipy")
        _assert_agrees_with_scipy(lp, reference.status)


class TestNearZeroCoefficients:
    """Regression: sub-tolerance matrix entries must not poison a pivot.

    A 1e-10 constraint coefficient used to survive into the legacy tableau,
    where a pivot on it divided the row by a near-zero value and amplified
    rounding dirt into a variable value of -1.1e-5 — outside its bounds.
    Both in-house solvers drop such entries (HiGHS does so in presolve).
    """

    def test_hypothesis_found_tiny_coefficient_example(self):
        # The rows of the hypothesis draw; the first now cuts off the origin.
        rows = [[1.0, 0.0, -1.0, -1.5], [1.0, 1e-10, 0.0625, 0.0]]
        lp = LinearProgram()
        variables = lp.add_variables(4, prefix="x", upper=10.0)
        for row, bound in zip(rows, [-3.0, 0.0]):
            lp.add_constraint(sum(c * v for c, v in zip(row, variables)) <= bound)
        _assert_agrees_with_scipy(lp, LPStatus.OPTIMAL)

    def test_dirt_negative_ratios_never_pull_variables_negative(self):
        # A degenerate row whose rhs is exact zero beside one that forces the
        # tiny-coefficient column up: no value may leave its bounds.
        lp = LinearProgram()
        x = lp.add_variables(3, prefix="x", upper=5.0)
        lp.add_constraint(x[0] + 1e-10 * x[1] + 0.0625 * x[2] <= 0)
        lp.add_constraint(x[1] + x[2] >= 3)
        solution = _assert_agrees_with_scipy(lp, LPStatus.OPTIMAL)
        assert min(solution.values.values()) >= 0.0
