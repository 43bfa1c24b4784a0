"""Unit tests for the matrix-form lowering."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from tests.reference.lp import LinearProgram, to_matrix_form


class TestMatrixForm:
    def test_dimensions_and_blocks(self):
        lp = LinearProgram(sense="min")
        x = lp.add_variable("x", lower=0.0, upper=5.0)
        y = lp.add_variable("y", lower=float("-inf"))
        lp.add_constraint(x + y <= 4)
        lp.add_constraint(x - y >= 1)
        lp.add_constraint(x + 2 * y == 3)
        lp.set_objective(2 * x - y + 7)
        form = to_matrix_form(lp)

        assert form.num_variables == 2
        assert form.num_inequalities == 2  # the >= row is negated into the <= block
        assert form.num_equalities == 1
        assert form.objective_constant == pytest.approx(7.0)
        np.testing.assert_allclose(form.c, [2.0, -1.0])
        np.testing.assert_allclose(form.a_ub[0], [1.0, 1.0])
        np.testing.assert_allclose(form.b_ub, [4.0, -1.0])
        np.testing.assert_allclose(form.a_ub[1], [-1.0, 1.0])
        np.testing.assert_allclose(form.a_eq[0], [1.0, 2.0])
        np.testing.assert_allclose(form.b_eq, [3.0])
        np.testing.assert_allclose(form.bounds, [(0.0, 5.0), (-np.inf, np.inf)])

    def test_maximisation_negates_costs(self):
        lp = LinearProgram(sense="max")
        x = lp.add_variable("x")
        lp.set_objective(3 * x)
        form = to_matrix_form(lp)
        np.testing.assert_allclose(form.c, [-3.0])
        assert form.objective_sign == -1.0
        # The backend minimises -3x; restoring maps the value back.
        assert form.restore_objective(-6.0) == pytest.approx(6.0)

    def test_empty_constraint_blocks(self):
        lp = LinearProgram()
        lp.add_variable("x")
        lp.set_objective(0.0)
        form = to_matrix_form(lp)
        assert form.a_ub.shape == (0, 1)
        assert form.a_eq.shape == (0, 1)


def _mixed_model() -> LinearProgram:
    lp = LinearProgram(sense="min")
    x = lp.add_variable("x", lower=0.0, upper=5.0)
    y = lp.add_variable("y", lower=float("-inf"))
    z = lp.add_variable("z", lower=-2.0)
    lp.add_constraint(x + y <= 4)
    lp.add_constraint(x - y + 3 * z >= 1)
    lp.add_constraint(x + 2 * y == 3)
    lp.add_constraint(2 * z <= 9)
    lp.set_objective(2 * x - y + z + 7)
    return lp


class TestSparseLowering:
    def test_sparse_blocks_are_csr(self):
        form = to_matrix_form(_mixed_model(), sparse=True)
        assert sp.issparse(form.a_ub) and form.a_ub.format == "csr"
        assert sp.issparse(form.a_eq) and form.a_eq.format == "csr"
        assert form.is_sparse
        assert not to_matrix_form(_mixed_model()).is_sparse

    def test_sparse_and_dense_lowerings_are_identical(self):
        dense = to_matrix_form(_mixed_model(), sparse=False)
        sparse = to_matrix_form(_mixed_model(), sparse=True)
        np.testing.assert_allclose(sparse.a_ub.toarray(), dense.a_ub)
        np.testing.assert_allclose(sparse.a_eq.toarray(), dense.a_eq)
        np.testing.assert_allclose(sparse.b_ub, dense.b_ub)
        np.testing.assert_allclose(sparse.b_eq, dense.b_eq)
        np.testing.assert_allclose(sparse.c, dense.c)
        np.testing.assert_allclose(sparse.bounds, dense.bounds)
        assert sparse.objective_constant == dense.objective_constant

    def test_densified_round_trip(self):
        sparse = to_matrix_form(_mixed_model(), sparse=True)
        dense = sparse.densified()
        assert not dense.is_sparse
        np.testing.assert_allclose(dense.a_ub, sparse.a_ub.toarray())
        # Densifying an already-dense form is the identity.
        assert dense.densified() is dense

    def test_sparse_empty_blocks(self):
        lp = LinearProgram()
        lp.add_variable("x")
        form = to_matrix_form(lp, sparse=True)
        assert form.a_ub.shape == (0, 1)
        assert form.a_eq.shape == (0, 1)

    def test_with_bounds_replaces_without_sharing(self):
        form = to_matrix_form(_mixed_model(), sparse=True)
        new_bounds = form.bounds.copy()
        new_bounds[0] = (1.0, 2.0)
        replaced = form.with_bounds(new_bounds)
        assert replaced.a_ub is form.a_ub  # matrices are shared
        np.testing.assert_allclose(replaced.bounds[0], [1.0, 2.0])
        np.testing.assert_allclose(form.bounds[0], [0.0, 5.0])
        with pytest.raises(ValueError):
            form.with_bounds(np.zeros((2, 2)))

    def test_with_bounds_copies_its_input(self):
        # with_bounds must defend against later caller mutation — the bounds
        # array of a lowered form aliases the model-level cache.
        model = _mixed_model()
        form = to_matrix_form(model)
        mutable = form.bounds.copy()
        replaced = form.with_bounds(mutable)
        mutable[0] = (9.0, 9.0)
        np.testing.assert_allclose(replaced.bounds[0], [0.0, 5.0])
        # Passing the form's own (cache-aliased) bounds must not expose the cache.
        aliased = form.with_bounds(form.bounds)
        aliased.bounds[0] = (7.0, 7.0)
        np.testing.assert_allclose(model.bounds_array()[0], [0.0, 5.0])

    def test_zero_variable_forms_solve_cleanly(self):
        # The form-level entry points must handle variable-free programs
        # (linprog rejects an empty cost vector).
        from repro.lp.scipy_backend import solve_matrix_form as scipy_solve
        from repro.lp.revised_simplex import solve_matrix_form as simplex_solve

        lp = LinearProgram()
        lp.set_objective(4.0)
        form = to_matrix_form(lp, sparse=True)
        for solve in (scipy_solve, simplex_solve):
            solution = solve(form)
            assert solution.is_optimal
            assert solution.objective_value == pytest.approx(4.0)

    def test_both_flavours_solve_identically(self):
        model = _mixed_model()
        dense_solution = model.solve()  # default path
        from repro.lp.scipy_backend import solve_matrix_form

        sparse_solution = solve_matrix_form(to_matrix_form(model, sparse=True))
        assert dense_solution.is_optimal and sparse_solution.is_optimal
        assert sparse_solution.objective_value == pytest.approx(
            dense_solution.objective_value, abs=1e-9
        )
