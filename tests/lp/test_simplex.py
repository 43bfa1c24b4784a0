"""Unit and cross-validation tests for the pure-Python simplex backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import LPStatus
from tests.reference.lp import LinearProgram


def _solve_both(lp: LinearProgram):
    return lp.solve(backend="scipy"), lp.solve(backend="simplex")


class TestSimplexBasics:
    def test_minimisation_matches_scipy(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(x + 2 * y >= 4)
        lp.add_constraint(3 * x + y >= 6)
        lp.set_objective(x + y)
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.is_optimal
        assert simplex_solution.objective_value == pytest.approx(
            scipy_solution.objective_value, abs=1e-7
        )

    def test_maximisation(self):
        lp = LinearProgram(sense="max")
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(2 * x + y <= 10)
        lp.add_constraint(x + 3 * y <= 15)
        lp.set_objective(3 * x + 4 * y)
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.objective_value == pytest.approx(
            scipy_solution.objective_value, abs=1e-7
        )

    def test_equality_constraints(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        z = lp.add_variable("z")
        lp.add_constraint(x + y + z == 6)
        lp.add_constraint(x - y == 1)
        lp.set_objective(2 * x + y + 3 * z)
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.objective_value == pytest.approx(
            scipy_solution.objective_value, abs=1e-7
        )

    def test_infeasible_detected(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.add_constraint(x >= 3)
        lp.set_objective(x)
        assert lp.solve(backend="simplex").status is LPStatus.INFEASIBLE

    def test_unbounded_detected(self):
        lp = LinearProgram(sense="max")
        x = lp.add_variable("x")
        lp.add_constraint(x >= 1)
        lp.set_objective(x)
        assert lp.solve(backend="simplex").status is LPStatus.UNBOUNDED

    def test_upper_bounded_variables(self):
        lp = LinearProgram(sense="max")
        x = lp.add_variable("x", upper=3.0)
        y = lp.add_variable("y", upper=4.0)
        lp.add_constraint(x + y <= 5)
        lp.set_objective(x + 2 * y)
        solution = lp.solve(backend="simplex")
        assert solution.objective_value == pytest.approx(9.0)

    def test_free_variables(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x", lower=float("-inf"))
        y = lp.add_variable("y")
        lp.add_constraint(x + y >= -5)
        lp.add_constraint(x >= -10)
        lp.set_objective(x + 2 * y)
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.objective_value == pytest.approx(
            scipy_solution.objective_value, abs=1e-7
        )

    def test_negative_lower_bounds(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x", lower=-4.0, upper=4.0)
        lp.add_constraint(x >= -2)
        lp.set_objective(x)
        solution = lp.solve(backend="simplex")
        assert solution.objective_value == pytest.approx(-2.0)

    def test_degenerate_constraints_do_not_cycle(self):
        # Classic degeneracy example; Bland's rule must terminate.
        lp = LinearProgram(sense="min")
        x = lp.add_variables(4, prefix="x")
        lp.add_constraint(0.25 * x[0] - 8 * x[1] - x[2] + 9 * x[3] <= 0)
        lp.add_constraint(0.5 * x[0] - 12 * x[1] - 0.5 * x[2] + 3 * x[3] <= 0)
        lp.add_constraint(x[2] <= 1)
        lp.set_objective(-0.75 * x[0] + 150 * x[1] - 0.02 * x[2] + 6 * x[3])
        solution = lp.solve(backend="simplex")
        assert solution.is_optimal
        reference = lp.solve(backend="scipy")
        assert solution.objective_value == pytest.approx(reference.objective_value, abs=1e-6)


class TestSimplexRandomCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_feasible_problems_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 6))
        num_cons = int(rng.integers(1, 6))
        lp = LinearProgram(sense="min")
        variables = lp.add_variables(num_vars, prefix="x", upper=10.0)
        for _ in range(num_cons):
            coefficients = rng.uniform(-2, 2, size=num_vars)
            rhs = float(rng.uniform(1, 10))
            expr = sum(float(c) * v for c, v in zip(coefficients, variables))
            lp.add_constraint(expr <= rhs)
        lp.set_objective(sum(float(c) * v for c, v in zip(rng.uniform(-1, 2, num_vars), variables)))
        scipy_solution, simplex_solution = _solve_both(lp)
        assert scipy_solution.status == simplex_solution.status
        if scipy_solution.is_optimal:
            assert simplex_solution.objective_value == pytest.approx(
                scipy_solution.objective_value, abs=1e-6
            )


class TestNearZeroCoefficients:
    """Regression: sub-tolerance matrix entries must not poison the tableau.

    A 1e-10 constraint coefficient used to survive into the tableau, where a
    pivot on it (after scaling, ~1.6e-9 > the 1e-9 pivot guard) divided the
    row by a near-zero value and amplified rounding dirt into a variable
    value of -1.1e-5 — outside its bounds and at the wrong vertex.  Both
    backends must drop such entries (HiGHS does so in presolve) and agree.
    """

    def test_hypothesis_found_tiny_coefficient_example(self):
        costs = [0.0, -1.0, 0.0, -1.0]
        rows = [[1.0, 0.0, -1.0, -1.5], [1.0, 1e-10, 0.0625, 0.0]]
        rhs = [0.0, 0.0]
        lp = LinearProgram(sense="min")
        variables = lp.add_variables(4, prefix="x", upper=10.0)
        for row, bound in zip(rows, rhs):
            lp.add_constraint(sum(c * v for c, v in zip(row, variables)) <= bound)
        lp.set_objective(sum(c * v for c, v in zip(costs, variables)))
        scipy_solution, simplex_solution = _solve_both(lp)
        assert simplex_solution.is_optimal
        assert lp.check_solution(simplex_solution.values, tol=1e-6) == []
        assert simplex_solution.objective_value == pytest.approx(
            scipy_solution.objective_value, abs=1e-6
        )

    def test_dirt_negative_ratios_never_pull_variables_negative(self):
        # Degenerate rows whose rhs is exact zero: the ratio test must clamp
        # accumulated -1e-14-style dirt instead of selecting a negative ratio.
        lp = LinearProgram(sense="min")
        x = lp.add_variables(3, prefix="x", upper=5.0)
        lp.add_constraint(x[0] + 1e-10 * x[1] + 0.0625 * x[2] <= 0)
        lp.set_objective(-x[1] - x[2])
        solution = lp.solve(backend="simplex")
        assert solution.is_optimal
        assert lp.check_solution(solution.values, tol=1e-6) == []
