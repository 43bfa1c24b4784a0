"""Unit tests for LP constraints."""

from __future__ import annotations

import pytest

from tests.reference.lp import Constraint, LinearProgram


@pytest.fixture
def model():
    return LinearProgram()


@pytest.fixture
def x(model):
    return model.add_variable("x")


class TestConstraintConstruction:
    def test_le_comparison_builds_constraint(self, x):
        con = x + 1 <= 5
        assert isinstance(con, Constraint)
        assert con.sense == "<="
        assert con.expression.constant == pytest.approx(-4.0)

    def test_ge_comparison_builds_constraint(self, x):
        con = 2 * x >= 3
        assert con.sense == ">="

    def test_eq_comparison_builds_constraint(self, x):
        con = x == 7
        assert isinstance(con, Constraint)
        assert con.sense == "=="

    def test_variable_le_variable(self, model):
        x, y = model.add_variable("x"), model.add_variable("y")
        con = x <= y
        assert con.expression.coefficient(x) == 1.0
        assert con.expression.coefficient(y) == -1.0

    def test_invalid_sense_rejected(self, x):
        with pytest.raises(ValueError):
            Constraint((x + 1) - 1, "<")

    def test_named_copy(self, x):
        con = (x <= 3).named("cap")
        assert con.name == "cap"


class TestConstraintEvaluation:
    def test_violation_of_satisfied_le(self, x):
        con = x <= 5
        assert con.violation({x.index: 4.0}) <= 0.0
        assert con.is_satisfied({x.index: 4.0})

    def test_violation_of_violated_le(self, x):
        con = x <= 5
        assert con.violation({x.index: 7.0}) == pytest.approx(2.0)
        assert not con.is_satisfied({x.index: 7.0})

    def test_violation_of_ge(self, x):
        con = x >= 5
        assert con.violation({x.index: 3.0}) == pytest.approx(2.0)
        assert con.violation({x.index: 6.0}) <= 0.0

    def test_violation_of_eq_is_absolute(self, x):
        con = x == 5
        assert con.violation({x.index: 3.0}) == pytest.approx(2.0)
        assert con.violation({x.index: 7.0}) == pytest.approx(2.0)

    def test_is_satisfied_respects_tolerance(self, x):
        con = x <= 5
        assert con.is_satisfied({x.index: 5.0 + 1e-9})
        assert not con.is_satisfied({x.index: 5.1})
