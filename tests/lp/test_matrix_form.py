"""The form-level LP surface: constant programs, typed errors, scipy's dense fallback."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError
from repro.lp import LPSolution, LPStatus, MatrixForm
from repro.lp import scipy_backend
from repro.lp.backends import solve_form
from repro.lp.solution import require_optimal


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


@pytest.mark.parametrize("backend", ["scipy", "revised"])
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


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # scipy's own notice on the method
def test_a_legacy_scipy_method_densifies_and_warns_once(monkeypatch):
    monkeypatch.setattr(scipy_backend, "_densify_warned", False)
    # min x subject to x >= 1, as a CSR form.
    form = MatrixForm(
        c=np.array([1.0]),
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=sp.csr_matrix(np.array([[-1.0]])),
        b_ub=np.array([-1.0]),
        a_eq=sp.csr_matrix((0, 1)),
        b_eq=np.zeros(0),
        bounds=np.array([[0.0, np.inf]]),
    )
    with pytest.warns(RuntimeWarning, match="densifying the lowered form"):
        first = scipy_backend.solve_matrix_form(form, method="interior-point")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        second = scipy_backend.solve_matrix_form(form, method="interior-point")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert first.objective_value == pytest.approx(1.0)
    assert second.objective_value == pytest.approx(1.0)
