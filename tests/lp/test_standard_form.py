"""Unit tests for the :class:`MatrixForm` container and its two flavours, and
for the test-side :func:`matrix_form` builder and :func:`violations` check."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.lp.scipy_backend import solve_matrix_form
from tests.reference.forms import matrix_form, violations

INF = float("inf")


def _mixed_form(sparse: bool = True):
    # min 2x - y + z s.t. x + y <= 4, x - y + 3z >= 1, x + 2y == 3, 2z <= 9,
    # 0 <= x <= 5, y free, z >= -2.
    return matrix_form(
        [
            ([1, 1, 0], "<=", 4),
            ([1, -1, 3], ">=", 1),
            ([1, 2, 0], "==", 3),
            ([0, 0, 2], "<=", 9),
        ],
        c=[2.0, -1.0, 1.0],
        bounds=[(0.0, 5.0), (-INF, INF), (-2.0, INF)],
        sparse=sparse,
    )


class TestMatrixForm:
    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "dense"])
    def test_dimensions_and_blocks(self, sparse):
        form = _mixed_form(sparse)
        assert form.is_sparse is sparse
        assert (form.num_variables, form.num_inequalities, form.num_equalities) == (3, 3, 1)
        assert form.num_constraints == 4
        assert form.a_ub.shape == (3, 3) and form.a_eq.shape == (1, 3)

    def test_empty_constraint_blocks(self):
        form = matrix_form(num_vars=2)
        assert (form.num_inequalities, form.num_equalities, form.num_constraints) == (0, 0, 0)
        assert form.a_ub.shape == form.a_eq.shape == (0, 2)
        assert form.b_ub.shape == form.b_eq.shape == (0,)

    def test_restore_objective_applies_the_sign_then_the_constant(self):
        form = replace(_mixed_form(), objective_sign=-1.0, objective_constant=2.5)
        assert form.restore_objective(4.0) == -1.5
        assert replace(form, objective_sign=1.0).restore_objective(4.0) == 6.5

    def test_densified_round_trip(self):
        sparse = _mixed_form()
        assert sparse.is_sparse
        dense = sparse.densified()
        assert not dense.is_sparse
        np.testing.assert_allclose(dense.a_ub, sparse.a_ub.toarray())
        np.testing.assert_allclose(dense.a_eq, sparse.a_eq.toarray())
        # Densifying an already-dense form is the identity.
        assert dense.densified() is dense

    def test_with_bounds_replaces_without_sharing(self):
        form = _mixed_form()
        new_bounds = form.bounds.copy()
        new_bounds[0] = (1.0, 2.0)
        replaced = form.with_bounds(new_bounds)
        assert replaced.a_ub is form.a_ub  # matrices are shared
        np.testing.assert_allclose(replaced.bounds[0], [1.0, 2.0])
        np.testing.assert_allclose(form.bounds[0], [0.0, 5.0])
        with pytest.raises(ValueError):
            form.with_bounds(np.zeros((2, 2)))

    def test_with_bounds_copies_its_input(self):
        # with_bounds must defend against later caller mutation.
        form = _mixed_form()
        mutable = form.bounds.copy()
        replaced = form.with_bounds(mutable)
        mutable[0] = (9.0, 9.0)
        np.testing.assert_allclose(replaced.bounds[0], [0.0, 5.0])
        # Passing the form's own bounds must not alias them either.
        aliased = form.with_bounds(form.bounds)
        aliased.bounds[0] = (7.0, 7.0)
        np.testing.assert_allclose(form.bounds[0], [0.0, 5.0])

    def test_zero_variable_forms_solve_cleanly(self):
        # The form-level entry points must handle variable-free programs
        # (HiGHS is never handed a model without columns).
        from repro.lp.revised_simplex import solve_matrix_form as simplex_solve

        form = replace(matrix_form(), objective_constant=4.0)
        for solve in (solve_matrix_form, simplex_solve):
            solution = solve(form)
            assert solution.is_optimal
            assert solution.objective_value == pytest.approx(4.0)

    def test_both_flavours_solve_identically(self):
        dense_solution = solve_matrix_form(_mixed_form(sparse=False))
        sparse_solution = solve_matrix_form(_mixed_form())
        assert dense_solution.is_optimal and sparse_solution.is_optimal
        assert sparse_solution.objective_value == pytest.approx(
            dense_solution.objective_value, abs=1e-9
        )


class TestFormBuilder:
    def test_ge_rows_are_negated_and_rows_keep_their_order(self):
        form = _mixed_form(sparse=False)
        np.testing.assert_array_equal(form.a_ub, [[1, 1, 0], [-1, 1, -3], [0, 0, 2]])
        np.testing.assert_array_equal(form.b_ub, [4, -1, 9])
        np.testing.assert_array_equal(form.a_eq, [[1, 2, 0]])
        np.testing.assert_array_equal(form.b_eq, [3])
        np.testing.assert_array_equal(form.c, [2, -1, 1])

    def test_blocks_are_csr_unless_dense_is_asked_for(self):
        sparse, dense = _mixed_form(), _mixed_form(sparse=False)
        assert sp.isspmatrix_csr(sparse.a_ub) and sp.isspmatrix_csr(sparse.a_eq)
        assert isinstance(dense.a_ub, np.ndarray) and isinstance(dense.a_eq, np.ndarray)

    def test_one_bounds_pair_applies_to_every_variable(self):
        form = matrix_form([([1, 1, 1], "<=", 1)], bounds=(-1.0, 2.0))
        np.testing.assert_array_equal(form.bounds, [[-1.0, 2.0]] * 3)
        np.testing.assert_array_equal(form.c, [0.0] * 3)
        assert (form.objective_sign, form.objective_constant) == (1.0, 0.0)


class TestViolations:
    def test_a_point_of_the_program_breaks_nothing(self):
        # x = y = z = 1 meets every row and bound.
        assert violations(_mixed_form(), {0: 1.0, 1: 1.0, 2: 1.0}) == []

    def test_reports_bound_and_row_violations(self):
        # x = 6 breaks its bound and x + y <= 4; x + 2y == 3 misses by 3.
        problems = violations(_mixed_form(), {0: 6.0, 1: 0.0, 2: 1.0})
        assert problems == [
            "x0 = 6.0 outside [0.0, 5.0]",
            "<= row 0 violated by 2.000e+00",
            "== row 0 violated by 3.000e+00",
        ]

    def test_ge_rows_are_checked_in_their_original_direction(self):
        # x - y + 3z = -1 < 1 breaks the >= row (stored negated as row 1).
        assert violations(_mixed_form(), {0: 1.0, 1: 1.0, 2: -1.0 / 3}) == [
            "<= row 1 violated by 2.000e+00"
        ]

    def test_equality_misses_count_in_both_directions(self):
        form = matrix_form([([1], "==", 2)], bounds=(-INF, INF))
        for x in (1.0, 3.0):
            assert violations(form, {0: x}) == ["== row 0 violated by 1.000e+00"]

    def test_breaches_within_the_tolerance_pass(self):
        form = matrix_form([([1, 1], "<=", 1)], bounds=(0.0, 1.0))
        point = {0: 1.0 + 1e-7, 1: 0.0}
        assert violations(form, point) == []
        assert len(violations(form, point, tol=1e-9)) == 2

    def test_an_absent_column_counts_as_zero(self):
        form = matrix_form([([1, 1], ">=", 1)], bounds=(0.0, 1.0))
        assert violations(form, {0: 1.0}) == []
        assert violations(form, {}) == ["<= row 0 violated by 1.000e+00"]
