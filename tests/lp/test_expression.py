"""Unit tests for the LP expression layer."""

from __future__ import annotations

import pytest

from tests.reference.lp import LinearExpression, LinearProgram, as_expression, linear_sum


@pytest.fixture
def model():
    return LinearProgram(name="expr-tests")


@pytest.fixture
def xy(model):
    return model.add_variable("x"), model.add_variable("y")


class TestVariableArithmetic:
    def test_variable_plus_variable(self, xy):
        x, y = xy
        expr = x + y
        assert expr.coefficient(x) == 1.0
        assert expr.coefficient(y) == 1.0
        assert expr.constant == 0.0

    def test_variable_plus_constant(self, xy):
        x, _ = xy
        expr = x + 3.5
        assert expr.coefficient(x) == 1.0
        assert expr.constant == 3.5

    def test_constant_plus_variable(self, xy):
        x, _ = xy
        expr = 2 + x
        assert expr.coefficient(x) == 1.0
        assert expr.constant == 2.0

    def test_variable_minus_variable(self, xy):
        x, y = xy
        expr = x - y
        assert expr.coefficient(x) == 1.0
        assert expr.coefficient(y) == -1.0

    def test_rsub_constant(self, xy):
        x, _ = xy
        expr = 10 - x
        assert expr.coefficient(x) == -1.0
        assert expr.constant == 10.0

    def test_scalar_multiplication_both_sides(self, xy):
        x, _ = xy
        assert (3 * x).coefficient(x) == 3.0
        assert (x * 3).coefficient(x) == 3.0

    def test_negation(self, xy):
        x, _ = xy
        assert (-x).coefficient(x) == -1.0

    def test_division(self, xy):
        x, _ = xy
        assert (x / 4).coefficient(x) == 0.25

    def test_division_by_zero_raises(self, xy):
        x, _ = xy
        with pytest.raises(ZeroDivisionError):
            (x + 1) / 0


class TestLinearExpression:
    def test_combining_collects_coefficients(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y - x + 1.0
        assert expr.coefficient(x) == pytest.approx(1.0)
        assert expr.coefficient(y) == pytest.approx(3.0)
        assert expr.constant == pytest.approx(1.0)

    def test_evaluate(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y + 1.0
        assert expr.evaluate({x.index: 1.0, y.index: 2.0}) == pytest.approx(9.0)

    def test_evaluate_missing_values_default_to_zero(self, xy):
        x, y = xy
        expr = 2 * x + 3 * y
        assert expr.evaluate({x.index: 1.0}) == pytest.approx(2.0)

    def test_is_constant(self, xy):
        x, _ = xy
        assert LinearExpression({}, 4.0).is_constant()
        assert not (x + 1).is_constant()
        assert (x - x).is_constant()

    def test_copy_is_independent(self, xy):
        x, _ = xy
        original = x + 1
        clone = original.copy()
        clone.add_constant(5.0)
        assert original.constant == 1.0

    def test_multiplying_expression_by_expression_raises(self, xy):
        x, y = xy
        with pytest.raises(TypeError):
            (x + 1) * (y + 1)  # type: ignore[operator]

    def test_add_incompatible_type_raises(self, xy):
        x, _ = xy
        with pytest.raises(TypeError):
            (x + 1) + "not a number"  # type: ignore[operator]


class TestHelpers:
    def test_as_expression_accepts_all_types(self, xy):
        x, _ = xy
        assert as_expression(x).coefficient(x) == 1.0
        assert as_expression(5.0).constant == 5.0
        expr = x + 2
        assert as_expression(expr) is expr

    def test_as_expression_rejects_strings(self):
        with pytest.raises(TypeError):
            as_expression("nope")  # type: ignore[arg-type]

    def test_linear_sum_matches_builtin_sum(self, model):
        variables = model.add_variables(10, prefix="v")
        fast = linear_sum(2.0 * v for v in variables)
        slow = sum((2.0 * v for v in variables), LinearExpression.zero())
        assert fast.coefficients == slow.coefficients

    def test_linear_sum_of_constants(self):
        assert linear_sum([1.0, 2.0, 3]).constant == pytest.approx(6.0)

    def test_linear_sum_mixed_terms(self, xy):
        x, y = xy
        expr = linear_sum([x, 2 * y, 4.0, x])
        assert expr.coefficient(x) == pytest.approx(2.0)
        assert expr.coefficient(y) == pytest.approx(2.0)
        assert expr.constant == pytest.approx(4.0)

    def test_linear_sum_rejects_bad_type(self):
        with pytest.raises(TypeError):
            linear_sum(["bad"])  # type: ignore[list-item]
