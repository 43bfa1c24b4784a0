"""Unit tests for affine functions of the objective value."""

from __future__ import annotations

import pytest

from repro.core import Affine


class TestAffineArithmetic:
    def test_constant_constructor(self):
        fn = Affine.const(3.0)
        assert fn(0.0) == 3.0 and fn(100.0) == 3.0
        assert fn.slope == 0.0

    def test_evaluation(self):
        fn = Affine(2.0, 0.5)
        assert fn(0.0) == pytest.approx(2.0)
        assert fn(4.0) == pytest.approx(4.0)

    def test_addition(self):
        a, b = Affine(1.0, 2.0), Affine(3.0, -1.0)
        total = a + b
        assert total.constant == 4.0 and total.slope == 1.0
        shifted = a + 5
        assert shifted.constant == 6.0 and shifted.slope == 2.0
        assert (5 + a).constant == 6.0

    def test_subtraction(self):
        a, b = Affine(1.0, 2.0), Affine(3.0, 0.5)
        diff = a - b
        assert diff.constant == -2.0 and diff.slope == 1.5
        assert (a - 1).constant == 0.0
        reverse = 10 - a
        assert reverse.constant == 9.0 and reverse.slope == -2.0

    def test_scaling_and_negation(self):
        a = Affine(1.0, 2.0)
        assert (3 * a).slope == 6.0
        assert (a * 3).constant == 3.0
        assert (-a).constant == -1.0 and (-a).slope == -2.0


class TestAffineStructure:
    def test_functionally_equal(self):
        assert Affine(1.0, 2.0).functionally_equal(Affine(1.0 + 1e-12, 2.0))
        assert not Affine(1.0, 2.0).functionally_equal(Affine(1.0, 2.1))

    def test_intersection_of_crossing_lines(self):
        a = Affine(0.0, 1.0)   # F
        b = Affine(4.0, 0.0)   # constant 4
        assert a.intersection(b) == pytest.approx(4.0)
        assert b.intersection(a) == pytest.approx(4.0)

    def test_intersection_of_parallel_lines_is_none(self):
        assert Affine(0.0, 1.0).intersection(Affine(3.0, 1.0)) is None
        assert Affine(2.0, 0.5).intersection(Affine(2.0, 0.5)) is None

    def test_deadline_semantics(self):
        # The deadline of a job released at 3 with weight 2 is 3 + F/2.
        deadline = Affine(3.0, 1.0 / 2.0)
        assert deadline(4.0) == pytest.approx(5.0)
        # It crosses the release date 7 at F = 8.
        assert deadline.intersection(Affine.const(7.0)) == pytest.approx(8.0)
