"""Property-based tests of the revised-simplex fast path (hypothesis).

The revised simplex decides zero-objective (feasibility) programs, so every
program drawn here has ``c == 0``.  Two contracts:

* **Revised vs tableau agreement** — over random programs skewed towards the
  degenerate and near-singular corners (zero right-hand sides, duplicated
  rows, sub-tolerance coefficients à la the ``1e-10`` regression), the
  revised simplex, the frozen tableau reference and HiGHS must agree on the
  feasibility verdict, and every reported witness (HiGHS's included) must
  satisfy the program.
  The *vertex* may legitimately differ on degenerate programs (that is the
  CODE_EPOCH 2005.6 bump), so values are checked for validity, not equality.
* **Warm vs cold identity** — along a probe-style refresh sequence (same
  skeleton, drifting bounds and right-hand sides), re-solving from the
  previous basis must return the same verdict as a from-scratch solve at
  every step, with a valid witness.

And two contracts of the kept-alive re-solve path, over random bounded
zero-objective programs (the shape of every replanning probe LP):

* **rhs-only re-solves** through one ``ProgramHandle`` reach scipy's verdict
  at every step;
* **verdict-only solves** change nothing but the answer: a sequence that
  mixes them reaches the same verdicts, pivot counts, witnesses and final
  solver state (basis, statuses, values, basis inverse) as the same
  sequence with full extraction throughout.

Coefficients are small integers (plus sub-tolerance dirt) and right-hand
sides multiples of 1/4, so an infeasible program misses by far more than any
solver tolerance and every solver must agree on each verdict.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lp import LPStatus
from repro.lp.revised_simplex import ProgramHandle, solve_matrix_form_revised
from repro.lp.scipy_backend import solve_matrix_form as scipy_solve_form
from repro.lp.standard_form import MatrixForm
from tests.reference.forms import matrix_form, violations
from tests.reference.tableau import solve_matrix_form as solve_matrix_form_tableau

#: Small integer coefficients, and now and then an exact zero or an entry of
#: the sub-drop-tolerance dirt class.
rough_coefficients = st.one_of(
    st.integers(min_value=-3, max_value=4).map(float),
    st.integers(min_value=-3, max_value=4).map(float),
    st.sampled_from([0.0, 1e-10, -1e-10]),
)
#: Right-hand sides on a 1/4 lattice, a third of them negative.
quarter_rhs = st.integers(min_value=-16, max_value=32).map(lambda k: k / 4)


@st.composite
def degenerate_lp(draw):
    """A box-bounded ``<=`` program biased towards degeneracy.

    Negative right-hand sides cut off the origin, so both verdicts occur.
    Degeneracy is injected through exact-zero right-hand sides and optional
    row duplication (parallel faces meeting at the same vertex).
    """
    num_vars = draw(st.integers(min_value=1, max_value=4))
    num_cons = draw(st.integers(min_value=0, max_value=4))
    rows = draw(
        st.lists(
            st.lists(rough_coefficients, min_size=num_vars, max_size=num_vars),
            min_size=num_cons,
            max_size=num_cons,
        )
    )
    rhs = draw(
        st.lists(
            st.one_of(quarter_rhs, st.just(0.0)), min_size=num_cons, max_size=num_cons
        )
    )
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
        rhs.append(rhs[0])
    return num_vars, rows, rhs


def _build(num_vars, rows, rhs, sparse=True) -> MatrixForm:
    return matrix_form(
        [(row, "<=", bound) for row, bound in zip(rows, rhs)],
        num_vars=num_vars,
        bounds=(0.0, 10.0),
        sparse=sparse,
    )


class TestRevisedAgreesWithTableau:
    @given(degenerate_lp())
    @settings(max_examples=60, deadline=None)
    def test_verdict_and_witness_validity(self, problem):
        form = _build(*problem)
        tableau = solve_matrix_form_tableau(_build(*problem, sparse=False))
        revised = solve_matrix_form_revised(form).solution
        assert revised.status is tableau.status
        assert tableau.status in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE)
        if tableau.is_optimal:
            # Vertices may differ on degenerate programs; both must be feasible.
            assert violations(form, revised.values) == []
            assert violations(form, tableau.values) == []

    @given(degenerate_lp())
    @settings(max_examples=40, deadline=None)
    def test_revised_agrees_with_scipy(self, problem):
        form = _build(*problem)
        reference = scipy_solve_form(form)
        revised = solve_matrix_form_revised(form).solution
        assert revised.status is reference.status
        assert reference.status in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE)
        if revised.is_optimal:
            assert violations(form, revised.values) == []
            assert violations(form, reference.values) == []


@st.composite
def refresh_sequence(draw):
    """A feasibility-probe-style skeleton plus a sequence of refreshes.

    Each refresh moves the variable bounds and scales the right-hand sides —
    the bound/rhs drift the replanning probes produce between events — while
    the constraint skeleton stays fixed.  Lower bounds push the rows past
    their right-hand sides, so some steps pivot and some are infeasible.
    """
    num_vars = draw(st.integers(min_value=2, max_value=4))
    num_cons = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=-2, max_value=4).map(float),
                min_size=num_vars,
                max_size=num_vars,
            ),
            min_size=num_cons,
            max_size=num_cons,
        )
    )
    base_rhs = draw(
        st.lists(
            st.integers(min_value=1, max_value=20).map(float),
            min_size=num_cons,
            max_size=num_cons,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12).map(lambda k: k / 4),  # rhs scale
                st.integers(min_value=1, max_value=10).map(float),  # upper bound
                st.sampled_from([0.0, 0.0, 1.0, 2.0]),  # lower bound (capped at upper)
            ),
            min_size=2,
            max_size=5,
        )
    )
    return rows, base_rhs, steps


class TestWarmMatchesCold:
    @given(refresh_sequence())
    @settings(max_examples=40, deadline=None)
    def test_warm_resolves_equal_cold_along_refresh_sequences(self, problem):
        rows, base_rhs, steps = problem
        basis = None
        for rhs_scale, upper, lower in steps:
            form = matrix_form(
                [(row, "<=", bound * rhs_scale) for row, bound in zip(rows, base_rhs)],
                bounds=(min(lower, upper), upper),
            )
            warm = solve_matrix_form_revised(form, warm_basis=basis)
            cold = solve_matrix_form_revised(form)
            assert warm.solution.status is cold.solution.status
            assert cold.solution.status is scipy_solve_form(form).status
            if warm.solution.is_optimal:
                assert violations(form, warm.solution.values) == []
            if warm.basis is not None:
                basis = warm.basis


@st.composite
def rhs_only_sequence(draw):
    """A bounded ``c == 0`` program and a series of right-hand sides for it.

    Coefficients are small integers and right-hand sides multiples of 1/4,
    so an infeasible step misses by far more than any solver tolerance and
    every backend must agree on each verdict.  Some lower bounds are 1, so
    columns enter and leave the basis at non-zero bounds.  Each step also
    draws whether it is asked verdict-only.
    """
    num_vars = draw(st.integers(min_value=2, max_value=6))
    num_ub = draw(st.integers(min_value=1, max_value=4))
    num_eq = draw(st.integers(min_value=0, max_value=2))
    coefficient = st.integers(min_value=-2, max_value=4).map(float)
    a_ub = draw(st.lists(st.lists(coefficient, min_size=num_vars, max_size=num_vars),
                         min_size=num_ub, max_size=num_ub))
    a_eq = draw(st.lists(st.lists(coefficient, min_size=num_vars, max_size=num_vars),
                         min_size=num_eq, max_size=num_eq))
    b_eq = draw(st.lists(st.integers(min_value=0, max_value=8).map(lambda k: k / 4),
                         min_size=num_eq, max_size=num_eq))
    lower = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0]), min_size=num_vars, max_size=num_vars))
    upper = draw(st.lists(st.integers(min_value=1, max_value=5).map(float),
                          min_size=num_vars, max_size=num_vars))
    rhs = st.lists(st.integers(min_value=-8, max_value=40).map(lambda k: k / 4),
                   min_size=num_ub, max_size=num_ub)
    steps = draw(st.lists(st.tuples(rhs, st.booleans()), min_size=2, max_size=8))
    return (a_ub, a_eq, b_eq, lower, upper), steps


def _program(problem):
    """The drawn program as a ``MatrixForm`` and its steps as arrays."""
    (a_ub, a_eq, b_eq, lower, upper), steps = problem
    num_vars = len(lower)
    form = MatrixForm(
        c=np.zeros(num_vars),
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=sp.csr_matrix(np.array(a_ub).reshape(len(a_ub), num_vars)),
        b_ub=np.zeros(len(a_ub)),
        a_eq=sp.csr_matrix(np.array(a_eq).reshape(len(a_eq), num_vars)),
        b_eq=np.array(b_eq, dtype=float),
        bounds=np.column_stack([lower, upper]),
    )
    return form, [(np.array(b_ub, dtype=float), verdict) for b_ub, verdict in steps]


def _resolve_sequence(form, steps, verdict_only):
    """Re-solve ``steps`` through one handle, the way a probe template does."""
    handle = ProgramHandle()
    basis = None
    results = []
    for b_ub, verdict in steps:
        result = solve_matrix_form_revised(
            replace(form, b_ub=b_ub),
            warm_basis=basis,
            handle=handle,
            verdict_only=verdict_only and verdict,
        )
        if result.basis is not None:
            basis = result.basis
        results.append(result)
    return results, handle


class TestRhsOnlyResolves:
    @given(rhs_only_sequence())
    @example(
        # x1 sits in [1, 1]: when it enters the basis, its lower bound of 1
        # must replace the leaving column's in the basic bounds.
        (
            (
                [[0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0, -1.0], [0.0] * 5, [0.0] * 5],
                [[0.0, 0.0, 0.0, 1.0, 0.0]],
                [0.0],
                [0.0, 1.0, 0.0, 0.0, 0.0],
                [1.0] * 5,
            ),
            [([0.0, 0.0, 0.0, 0.0], False), ([0.0, 3.25, 0.0, 0.0], False)],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rhs_only_resolves_reach_scipys_verdicts(self, problem):
        form, steps = _program(problem)
        results, _ = _resolve_sequence(form, steps, verdict_only=True)
        for (b_ub, _), result in zip(steps, results):
            reference = scipy_solve_form(replace(form, b_ub=b_ub))
            assert result.solution.status is reference.status

    @given(rhs_only_sequence())
    @settings(max_examples=60, deadline=None)
    def test_verdict_only_solves_leave_the_state_of_full_solves(self, problem):
        form, steps = _program(problem)
        # Close both sequences with a witness solve: it reads the inverse a
        # deferred refactorisation must have rebuilt.
        steps = steps + [(steps[-1][0], False)]
        mixed, mixed_handle = _resolve_sequence(form, steps, verdict_only=True)
        full, full_handle = _resolve_sequence(form, steps, verdict_only=False)
        for (_, verdict), got, want in zip(steps, mixed, full):
            assert got.solution.status is want.solution.status
            assert got.solution.iterations == want.solution.iterations
            assert got.warm_used == want.warm_used
            if verdict:
                assert got.solution.values == {}
            else:
                assert got.solution.values == want.solution.values
        assert (mixed_handle.program is None) == (full_handle.program is None)
        if full_handle.program is not None:
            got, want = mixed_handle.program, full_handle.program
            assert np.array_equal(got.basis, want.basis)
            assert np.array_equal(got.vstatus, want.vstatus)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.b_inv, want.b_inv)
            assert not got.refactor_due
