"""Unit tests for the LinearProgram model object and the SciPy backend."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleProblemError, UnboundedProblemError
from repro.lp import LPStatus
from tests.reference.lp import LinearProgram, solution_value


class TestModelBuilding:
    def test_variables_are_indexed_in_order(self):
        lp = LinearProgram()
        a, b, c = lp.add_variables(3, prefix="v")
        assert (a.index, b.index, c.index) == (0, 1, 2)
        assert lp.num_variables == 3

    def test_default_variable_names(self):
        lp = LinearProgram()
        v = lp.add_variable()
        assert v.name == "x0"

    def test_empty_domain_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable("bad", lower=2.0, upper=1.0)

    def test_invalid_sense_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(sense="maximize-ish")

    def test_add_constraint_requires_constraint_object(self):
        lp = LinearProgram()
        with pytest.raises(TypeError):
            lp.add_constraint(42)  # type: ignore[arg-type]

    def test_fix_variable_adds_equality(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.fix_variable(x, 3.0)
        lp.set_objective(x)
        solution = lp.solve()
        assert solution_value(solution, x) == pytest.approx(3.0)

    def test_to_text_mentions_constraints(self):
        lp = LinearProgram(name="dump")
        x = lp.add_variable("x")
        lp.add_constraint(x <= 4, name="cap")
        text = lp.to_text()
        assert "cap" in text and "bounds" in text

    def test_check_solution_reports_bound_and_constraint_violations(self):
        lp = LinearProgram()
        x = lp.add_variable("x", lower=0.0, upper=1.0)
        lp.add_constraint(x >= 0.5, name="half")
        problems = lp.check_solution({x.index: 2.0})
        assert any("outside bounds" in p for p in problems)
        problems = lp.check_solution({x.index: 0.2})
        assert any("half" in p for p in problems)
        assert lp.check_solution({x.index: 0.7}) == []


class TestSolvingWithScipy:
    def test_simple_minimisation(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(x + 2 * y >= 4)
        lp.add_constraint(3 * x + y >= 6)
        lp.set_objective(x + y)
        solution = lp.solve()
        assert solution.is_optimal
        # Optimum at the intersection of the two constraints: x = 1.6, y = 1.2.
        assert solution.objective_value == pytest.approx(2.8, abs=1e-6)

    def test_simple_maximisation(self):
        lp = LinearProgram(sense="max")
        x = lp.add_variable("x", upper=10.0)
        y = lp.add_variable("y", upper=5.0)
        lp.add_constraint(x + y <= 12)
        lp.set_objective(2 * x + 3 * y)
        solution = lp.solve()
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(2 * 7 + 3 * 5)

    def test_objective_constant_is_restored(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x", lower=1.0)
        lp.set_objective(x + 100.0)
        solution = lp.solve()
        assert solution.objective_value == pytest.approx(101.0)

    def test_infeasible_model(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.add_constraint(x >= 2)
        lp.set_objective(x)
        solution = lp.solve()
        assert solution.status is LPStatus.INFEASIBLE
        with pytest.raises(InfeasibleProblemError):
            lp.solve_or_raise()

    def test_unbounded_model(self):
        lp = LinearProgram(sense="max")
        x = lp.add_variable("x")
        lp.set_objective(x)
        solution = lp.solve()
        assert solution.status is LPStatus.UNBOUNDED
        with pytest.raises(UnboundedProblemError):
            lp.solve_or_raise()

    def test_equality_constraints(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(x + y == 10)
        lp.add_constraint(x - y == 2)
        lp.set_objective(x)
        solution = lp.solve()
        assert solution_value(solution, x) == pytest.approx(6.0)
        assert solution_value(solution, y) == pytest.approx(4.0)

    def test_free_variable(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x", lower=float("-inf"))
        lp.add_constraint(x >= -7)
        lp.set_objective(x)
        solution = lp.solve()
        assert solution.objective_value == pytest.approx(-7.0)

    def test_solution_value_of_expression(self):
        lp = LinearProgram()
        x = lp.add_variable("x", lower=2.0)
        y = lp.add_variable("y", lower=3.0)
        lp.set_objective(x + y)
        solution = lp.solve()
        assert solution_value(solution, x + 2 * y) == pytest.approx(8.0)
        assert solution_value(solution, 5) == 5.0
        assert solution_value(solution, x) == pytest.approx(2.0)

    def test_model_with_no_variables_is_trivially_optimal(self):
        lp = LinearProgram()
        lp.set_objective(0.0)
        solution = lp.solve()
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(0.0)

    def test_unknown_backend_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError):
            lp.solve(backend="gurobi")

