"""The form-level LP surface: constant programs and typed errors."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError
from repro.lp import LPSolution, LPStatus, MatrixForm
from repro.lp.backends import solve_form
from repro.lp.solution import require_optimal
from repro.obs.metrics import collecting


def _constant_form(b_ub, b_eq) -> MatrixForm:
    return MatrixForm(
        c=np.zeros(0),
        objective_constant=2.5,
        objective_sign=1.0,
        a_ub=np.zeros((len(b_ub), 0)),
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=np.zeros((len(b_eq), 0)),
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=np.zeros((0, 2)),
    )


def _two_variable_form(c, a_ub, b_ub, bounds, a_eq=(), b_eq=()) -> MatrixForm:
    """Maximise ``-c @ x + 1`` (stored minimised, sign -1, constant 1)."""
    return MatrixForm(
        c=np.asarray(c, dtype=float),
        objective_constant=1.0,
        objective_sign=-1.0,
        a_ub=sp.csr_matrix(np.asarray(a_ub, dtype=float).reshape(-1, 2)),
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=sp.csr_matrix(np.asarray(a_eq, dtype=float).reshape(-1, 2)),
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=np.asarray(bounds, dtype=float),
    )


BACKENDS = ["scipy", "revised"]


def test_an_optimal_form_restores_the_model_objective():
    # max x + 2y + 1 s.t. x + y <= 4, x - y == 2, 0 <= x <= 3, 0 <= y <= 1.
    # Objective programs go to HiGHS; the revised simplex rejects them.
    form = _two_variable_form(
        [-1.0, -2.0], [[1.0, 1.0]], [4.0], [[0.0, 3.0], [0.0, 1.0]], [[1.0, -1.0]], [2.0]
    )
    solution = solve_form(form)
    assert solution.is_optimal
    assert solution.values == pytest.approx({0: 3.0, 1: 1.0}, abs=1e-9)
    assert solution.objective_value == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_feasible_zero_objective_form_reports_a_point_and_its_constant(backend):
    # x + y <= 4, x - y == 2, 0 <= x <= 3, 0 <= y <= 1: the objective is the
    # restored constant, -0 + 1.
    form = _two_variable_form(
        [0.0, 0.0], [[1.0, 1.0]], [4.0], [[0.0, 3.0], [0.0, 1.0]], [[1.0, -1.0]], [2.0]
    )
    solution = solve_form(form, backend)
    assert solution.is_optimal
    x, y = solution.values[0], solution.values[1]
    assert x + y <= 4.0 + 1e-9 and x - y == pytest.approx(2.0, abs=1e-9)
    assert 0.0 <= x <= 3.0 and 0.0 <= y <= 1.0
    assert solution.objective_value == 1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_infeasible_form_reports_infeasible(backend):
    form = _two_variable_form([0.0, 0.0], [[1.0, 1.0]], [-1.0], [[0.0, np.inf]] * 2)
    solution = solve_form(form, backend)
    assert solution.status is LPStatus.INFEASIBLE
    assert solution.values == {}
    assert solution.objective_value is None


def test_an_unbounded_form_reports_unbounded():
    # x has no upper bound and no row; only y is capped.  A zero-objective
    # program is never unbounded, so only HiGHS sees this one.
    form = _two_variable_form([-1.0, 0.0], [[0.0, 1.0]], [1.0], [[0.0, np.inf]] * 2)
    solution = solve_form(form)
    assert solution.status is LPStatus.UNBOUNDED
    assert solution.objective_value is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_solve_records_itself_on_the_installed_recorder(backend):
    form = _two_variable_form([0.0, 0.0], [[1.0, 1.0]], [1.0], [[0.0, np.inf]] * 2)
    with collecting() as recorder:
        assert solve_form(form, backend).is_optimal
    snapshot = recorder.snapshot()
    assert snapshot["counters"]["lp.solves"] == 1.0
    assert snapshot["histograms"]["lp.iterations"]["count"] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_variable_free_form_is_decided_by_its_constant_rows(backend):
    feasible = solve_form(_constant_form([0.0, 1.0], [0.0]), backend)
    assert feasible.is_optimal
    assert feasible.objective_value == 2.5
    assert feasible.values == {}
    # 0 <= -1 fails; so does 0 == 0.5.
    for b_ub, b_eq in (([-1.0], []), ([], [0.5])):
        solution = solve_form(_constant_form(b_ub, b_eq), backend)
        assert solution.status is LPStatus.INFEASIBLE
        assert solution.is_infeasible


def test_require_optimal_raises_one_typed_error_per_status():
    optimal = LPSolution(status=LPStatus.OPTIMAL, objective_value=1.0)
    assert require_optimal(optimal) is optimal
    with pytest.raises(InfeasibleProblemError, match="LP cover is infeasible"):
        require_optimal(LPSolution(status=LPStatus.INFEASIBLE), "cover")
    with pytest.raises(UnboundedProblemError, match="<unnamed>"):
        require_optimal(LPSolution(status=LPStatus.UNBOUNDED))
    with pytest.raises(SolverError, match="iteration limit"):
        require_optimal(LPSolution(status=LPStatus.ERROR, message="iteration limit"))

