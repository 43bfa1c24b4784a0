"""The HiGHS backend answers exactly as ``scipy.optimize.linprog`` does.

:func:`repro.lp.scipy_backend.solve_matrix_form` calls scipy's bundled HiGHS
bindings directly.  Here ``linprog(method="highs")``, called the way the
backend used to call it, is the oracle: over small programs with CSR, dense
and mixed blocks (explicit zeros and duplicate entries included), ``<=``-only,
``==``-only and row-free forms, infinite and NaN bounds and both presolve
settings, the two must agree on the status, on ``x`` bit for bit, on the
objective and on the iteration count.  The unit tests below pin the input checks and the
post-solve residual check the backend keeps from linprog.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import repro.lp.scipy_backend as scipy_backend
from repro.lp import LPStatus
from repro.lp.scipy_backend import solve_matrix_form
from repro.lp.standard_form import MatrixForm
from tests.reference.forms import matrix_form

INF = float("inf")
NAN = float("nan")

_ORACLE_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def _oracle(form: MatrixForm, presolve: bool):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return linprog(
            c=form.c,
            A_ub=form.a_ub if form.num_inequalities else None,
            b_ub=form.b_ub if form.num_inequalities else None,
            A_eq=form.a_eq if form.num_equalities else None,
            b_eq=form.b_eq if form.num_equalities else None,
            bounds=form.bounds,
            method="highs",
            options=None if presolve else {"presolve": False},
        )


def assert_matches_oracle(form: MatrixForm, presolve: bool = True) -> LPStatus:
    expected = _oracle(form, presolve)
    solution = solve_matrix_form(form, presolve=presolve)
    assert solution.status is _ORACLE_STATUS.get(expected.status, LPStatus.ERROR)
    assert solution.iterations == expected.nit
    if solution.is_optimal:
        x = np.array([solution.values[k] for k in range(form.num_variables)])
        assert x.tobytes() == expected.x.tobytes()
        assert solution.objective_value == form.restore_objective(float(expected.fun))
    else:
        assert solution.values == {} and solution.objective_value is None
    return solution.status


def _block(rows, n: int, kind: str):
    """``rows`` as a dense array or a CSR matrix of the given storage ``kind``."""
    dense = np.array(rows, dtype=float).reshape(len(rows), n)
    m = dense.shape[0]
    if kind == "dense":
        return dense
    if kind == "csr":
        return sp.csr_matrix(dense)
    if kind == "csr-explicit-zeros":
        # Every position stored, zeros included, as the allocation builders do.
        return sp.csr_matrix(
            (dense.ravel(), np.tile(np.arange(n), m), np.arange(0, m * n + 1, n)), shape=(m, n)
        )
    # "csr-duplicates": every entry stored twice, columns in descending order.
    columns = np.tile(np.arange(n)[::-1], m)
    values = dense[:, ::-1].ravel()
    return sp.csr_matrix(
        (
            np.column_stack((values - 1.0, np.ones_like(values))).ravel(),
            np.repeat(columns, 2),
            np.arange(0, 2 * m * n + 1, 2 * n),
        ),
        shape=(m, n),
    )


BLOCK_KINDS = ("dense", "csr", "csr-explicit-zeros", "csr-duplicates")

coefficient = st.one_of(
    st.integers(min_value=-3, max_value=4).map(float),
    st.sampled_from([0.0, 0.5, -1.5, 1e-10]),
)
quarter = st.integers(min_value=-16, max_value=32).map(lambda k: k / 4)
bound_pair = st.tuples(
    st.sampled_from([0.0, 0.0, -2.0, 1.0, -INF, NAN]), st.sampled_from([INF, INF, 3.0, 10.0, NAN])
)


@st.composite
def lp_specs(draw):
    """A small program as plain data: ``(c, ub rows, b_ub, eq rows, b_eq,
    bounds, block kinds, presolve)``.  Now and then a lower bound of ``+inf``
    makes HiGHS refuse the model, which linprog reports as infeasible."""
    n = draw(st.integers(min_value=1, max_value=5))

    def rows(max_rows):
        count = draw(st.integers(min_value=0, max_value=max_rows))
        row = st.lists(coefficient, min_size=n, max_size=n)
        matrix = draw(st.lists(row, min_size=count, max_size=count))
        return matrix, draw(st.lists(quarter, min_size=count, max_size=count))

    a_ub, b_ub = rows(4)
    a_eq, b_eq = rows(3)
    bounds = draw(st.lists(bound_pair, min_size=n, max_size=n))
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        bounds[0] = (INF, INF)
    c = draw(st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=n, max_size=n))
    kinds = (draw(st.sampled_from(BLOCK_KINDS)), draw(st.sampled_from(BLOCK_KINDS)))
    return c, a_ub, b_ub, a_eq, b_eq, bounds, kinds, draw(st.booleans())


def _form(c, a_ub, b_ub, a_eq, b_eq, bounds, kinds) -> MatrixForm:
    n = len(c)
    return MatrixForm(
        c=np.array(c),
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=_block(a_ub, n, kinds[0]),
        b_ub=np.array(b_ub, dtype=float),
        a_eq=_block(a_eq, n, kinds[1]),
        b_eq=np.array(b_eq, dtype=float),
        bounds=np.array(bounds, dtype=float),
    )


#: Infeasible: x0 + x1 <= -1 over non-negative variables.
INFEASIBLE = ([1.0, 1.0], [[1.0, 1.0]], [-1.0], [], [], [(0.0, INF)] * 2, ("csr", "csr"), True)
#: Unbounded: minimise -x0 with x0 - x1 == 0 and both free above.
UNBOUNDED = ([-1.0, 0.0], [], [], [[1.0, -1.0]], [0.0], [(0.0, INF)] * 2, ("csr", "dense"), False)


class TestMatchesLinprog:
    @given(lp_specs())
    @example(INFEASIBLE)
    @example(UNBOUNDED)
    @settings(max_examples=200, deadline=None)
    def test_status_x_objective_and_iterations(self, spec):
        *program, presolve = spec
        assert_matches_oracle(_form(*program), presolve)

    @pytest.mark.parametrize("presolve", [True, False])
    @pytest.mark.parametrize(
        "spec, status",
        [(INFEASIBLE, LPStatus.INFEASIBLE), (UNBOUNDED, LPStatus.UNBOUNDED)],
        ids=["infeasible", "unbounded"],
    )
    def test_certificates_match(self, spec, status, presolve):
        *program, _ = spec
        assert assert_matches_oracle(_form(*program), presolve) is status

    @pytest.mark.parametrize("presolve", [True, False])
    def test_a_nan_bound_is_no_bound(self, presolve):
        # min -x0 + x1 s.t. x0 + x1 >= 1, x0 <= 3: the NaN lower bound of x1
        # is -inf, so the optimum is x = (3, -2).
        form = matrix_form(
            [([1, 1], ">=", 1), ([1, 0], "<=", 3)], c=[-1.0, 1.0], bounds=[(0.0, NAN), (NAN, 5.0)]
        )
        assert assert_matches_oracle(form, presolve) is LPStatus.OPTIMAL
        assert solve_matrix_form(form, presolve=presolve).values == {0: 3.0, 1: -2.0}

    def test_a_model_highs_refuses_counts_as_infeasible(self):
        form = matrix_form([([1, 1], "<=", 4)], c=[1.0, -1.0], bounds=[(INF, INF), (0.0, 1.0)])
        assert assert_matches_oracle(form) is LPStatus.INFEASIBLE

    @pytest.mark.parametrize("presolve", [True, False])
    def test_an_objective_program_with_every_block_kind(self, presolve):
        # min 2x - y + z s.t. x + y <= 4, x - y + 3z >= 1, x + 2y == 3, 2z <= 9.
        rows = [
            ([1, 1, 0], "<=", 4),
            ([1, -1, 3], ">=", 1),
            ([1, 2, 0], "==", 3),
            ([0, 0, 2], "<=", 9),
        ]
        bounds = [(0.0, 5.0), (-INF, INF), (-2.0, INF)]
        for sparse in (True, False):
            form = matrix_form(rows, c=[2.0, -1.0, 1.0], bounds=bounds, sparse=sparse)
            assert assert_matches_oracle(form, presolve) is LPStatus.OPTIMAL


def _valid_form() -> MatrixForm:
    return matrix_form([([1, 1], "<=", 4), ([1, -1], "==", 0)], c=[-1.0, -1.0], bounds=(0.0, 10.0))


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    @pytest.mark.parametrize("field", ["c", "b_ub", "b_eq"])
    def test_a_non_finite_vector_entry_is_rejected(self, field, bad):
        form = _valid_form()
        vector = getattr(form, field).copy()
        vector[0] = bad
        with pytest.raises(ValueError, match=field):
            solve_matrix_form(replace(form, **{field: vector}))

    @pytest.mark.parametrize("bad", [np.nan, INF])
    @pytest.mark.parametrize("field", ["a_ub", "a_eq"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "dense"])
    def test_a_non_finite_matrix_entry_is_rejected(self, field, bad, sparse):
        form = _valid_form() if sparse else _valid_form().densified()
        block = getattr(form, field).copy()
        if sparse:
            block.data[0] = bad
        else:
            block[0, 0] = bad
        with pytest.raises(ValueError, match="inf or nan"):
            solve_matrix_form(replace(form, **{field: block}))

    @pytest.mark.parametrize(
        "change",
        [
            {"c": np.zeros(3)},
            {"b_ub": np.zeros(2)},
            {"b_eq": np.zeros(0)},
            {"a_ub": sp.csr_matrix(np.ones((1, 3)))},
            {"a_eq": np.ones((1, 1))},
            {"bounds": np.zeros((2, 3))},
        ],
        ids=["c", "b_ub", "b_eq", "a_ub", "a_eq", "bounds"],
    )
    def test_inconsistent_shapes_are_rejected(self, change):
        with pytest.raises(ValueError, match="shape"):
            solve_matrix_form(replace(_valid_form(), **change))


class _ShiftedSolution:
    """A real HiGHS solver whose reported solution is moved after the fact."""

    _highs = scipy_backend.highs._Highs

    def __init__(self, column_shift=0.0, row_shift=0.0):
        self._solver = self._highs()
        self._shifts = column_shift, row_shift

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def getSolution(self):
        solution = self._solver.getSolution()
        column_shift, row_shift = self._shifts
        return SimpleNamespace(
            col_value=[v + column_shift for v in solution.col_value],
            row_value=[v + row_shift for v in solution.row_value],
        )


class TestResidualCheck:
    """An "optimal" answer that misses its bounds or rows by more than
    linprog's ``10·sqrt(1e-9)`` comes back as an error."""

    def _solve(self, monkeypatch, **shifts):
        # x = (2, 2) is optimal and sits on the row x0 + x1 <= 4 and the
        # equality x0 - x1 == 0.
        monkeypatch.setattr(scipy_backend.highs, "_Highs", lambda: _ShiftedSolution(**shifts))
        return solve_matrix_form(_valid_form())

    @pytest.mark.parametrize(
        "shifts",
        [
            {"column_shift": 9.0},
            {"row_shift": 1e-3},
            {"row_shift": -1e-3},
            {"column_shift": np.nan},
        ],
        ids=["bound", "inequality-row", "equality-row", "nan"],
    )
    def test_a_violating_solution_is_an_error(self, monkeypatch, shifts):
        solution = self._solve(monkeypatch, **shifts)
        assert solution.status is LPStatus.ERROR
        assert solution.values == {} and "misses its constraints" in solution.message

    def test_a_solution_within_tolerance_stays_optimal(self, monkeypatch):
        solution = self._solve(monkeypatch, column_shift=1e-5, row_shift=1e-5)
        assert solution.is_optimal
        assert solution.values[0] == pytest.approx(2.0 + 1e-5)
