"""Unit tests for the sparse revised simplex, the zero-objective fast path.

The cross-validation against scipy and the frozen tableau lives in the
hypothesis suite (``tests/lp/test_revised_properties.py``); what this module
pins down is the solver's own contract: zero-objective programs only (a
nonzero cost is rejected), the ``simplex-revised`` backend label, basis
snapshots and warm re-solves, the no-densify guarantee, status detection on
the degenerate corners (infeasible / variable-free / constraint-free), the
injected ``lp.*`` metrics, and the raw CSC arrays the solver runs on:
assembled and multiplied bit for bit as scipy.sparse would, without a
scipy.sparse object on the solve path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

from repro.core import maxflow, minimize_max_weighted_flow, replanning
from repro.core.replanning import ReplanProbe
from repro.heuristics import DeadlineDrivenScheduler, OnlineOfflineAdaptationScheduler
from repro.lp import LPStatus, revised_simplex
from repro.lp.backends import BACKEND_LABELS, solve_form
from repro.lp.revised_simplex import (
    BasisState,
    ProgramHandle,
    _COEFF_DROP,
    _csr_block,
    _Program,
    solve_matrix_form,
    solve_matrix_form_revised,
)
from repro.lp.standard_form import MatrixForm
from repro.obs.metrics import MetricsRecorder
from repro.simulation import simulate
from repro.workload import available_scenarios, make_scenario, random_unrelated_instance
from tests.reference.forms import matrix_form, violations
from tests.reference.tableau import solve_matrix_form as solve_matrix_form_tableau

INF = float("inf")


def _sample_form(upper: float = INF, sparse: bool = True) -> MatrixForm:
    """Two ``>=`` rows that cut off the origin; the crash basis dual-solves it."""
    return matrix_form(
        [([1, 2], ">=", 4), ([3, 1], ">=", 6)], bounds=(0.0, upper), sparse=sparse
    )


def _two_phase_form() -> MatrixForm:
    """Two equality rows whose only usable crash column is the same ``x``.

    No crash basis exists, so a cold solve runs phase 1 with an artificial
    per row and then drives them out of the basis.
    """
    return matrix_form([([1, 1, 1], "==", 6), ([1, 0, 0], "==", 1)])


def _objective_form() -> MatrixForm:
    return replace(_sample_form(), c=np.ones(2))


class TestZeroObjectiveContract:
    def test_revised_entry_point_rejects_a_nonzero_cost(self):
        with pytest.raises(ValueError, match=r"zero-objective.*HiGHS"):
            solve_matrix_form_revised(_objective_form())
        with pytest.raises(ValueError, match=r"zero-objective.*HiGHS"):
            solve_matrix_form(_objective_form())

    def test_the_revised_name_rejects_a_nonzero_cost(self):
        with pytest.raises(ValueError, match=r"zero-objective.*HiGHS"):
            solve_form(_objective_form(), "revised")

    def test_a_kept_program_does_not_bypass_the_check(self):
        form = _sample_form()
        handle = ProgramHandle()
        assert solve_matrix_form_revised(form, handle=handle).solution.is_optimal
        assert handle.matches(form)
        costly = replace(form, c=np.ones_like(form.c))
        assert handle.matches(costly)  # the handle matches blocks and bounds only
        with pytest.raises(ValueError, match="zero-objective"):
            solve_matrix_form_revised(costly, handle=handle)


class TestColdSolve:
    def test_matches_scipy_and_reports_canonical_label(self):
        form = _sample_form()
        reference = solve_form(form, "scipy")
        solution = solve_matrix_form(form)
        assert solution.status is reference.status is LPStatus.OPTIMAL
        assert solution.backend == "simplex-revised"
        assert solution.objective_value == 0.0
        assert violations(form, solution.values) == []

    def test_never_densifies_the_lowered_form(self, monkeypatch):
        form = _sample_form()
        assert form.is_sparse

        def _boom(self):
            raise AssertionError("revised simplex must not densify the form")

        monkeypatch.setattr(MatrixForm, "densified", _boom)
        solution = solve_matrix_form(form)
        assert solution.is_optimal
        assert form.is_sparse

    def test_dense_lowering_is_also_accepted(self):
        # The solver promises CSR-native operation, not CSR-only input.
        sparse = solve_matrix_form(_sample_form())
        dense = solve_matrix_form(_sample_form(sparse=False))
        assert dense.status is sparse.status is LPStatus.OPTIMAL
        assert violations(_sample_form(), dense.values) == []

    def test_equality_rows_drive_out_artificials(self):
        form = _two_phase_form()
        result = solve_matrix_form_revised(form)
        assert result.solution.is_optimal
        assert violations(form, result.solution.values, tol=1e-9) == []
        # No artificial stayed basic, so the basis is reusable.
        assert result.basis is not None

    def test_infeasible_detected(self):
        form = matrix_form([([1], ">=", 3)], bounds=(0.0, 1.0))
        assert solve_matrix_form(form).status is LPStatus.INFEASIBLE

    def test_constraint_free_program_solved_on_the_box(self):
        # Each column sits at a finite bound, lower first, else at zero.
        form = matrix_form(num_vars=3, bounds=[(1.0, 3.0), (-INF, 4.0), (-INF, INF)])
        solution = solve_matrix_form(replace(form, objective_constant=2.5))
        assert solution.is_optimal
        assert solution.values == {0: 1.0, 1: 4.0, 2: 0.0}
        assert solution.objective_value == 2.5

    def test_crossed_bounds_are_infeasible(self):
        # Probe refreshes can produce crossed bounds through
        # MatrixForm.with_bounds.
        form = matrix_form([([1], "<=", 5)], bounds=(0.0, 5.0))
        crossed = form.with_bounds(np.asarray([[2.0, 1.0]]))
        assert solve_matrix_form(crossed).status is LPStatus.INFEASIBLE
        boxed = replace(crossed, a_ub=sp.csr_matrix((0, 1)), b_ub=np.zeros(0))
        assert solve_matrix_form(boxed).status is LPStatus.INFEASIBLE

    def test_near_zero_coefficients_are_dropped(self):
        # A 1e-10 entry must not survive into a pivot (both in-house solvers
        # share the 1e-9 drop threshold).
        form = matrix_form(
            [([1.0, 0.0, -1.0, -1.5], "<=", -3.0), ([1.0, 1e-10, 0.0625, 0.0], "<=", 0.0)],
            bounds=(0.0, 10.0),
        )
        solution = solve_matrix_form(form)
        assert solution.is_optimal
        assert violations(form, solution.values) == []


class TestWarmStart:
    def test_warm_resolve_matches_cold(self):
        cold = solve_matrix_form_revised(_sample_form(10.0))
        assert cold.basis is not None
        assert not cold.warm_used
        for upper in (8.0, 5.0, 3.0, 1.0):
            refreshed = _sample_form(upper)
            warm = solve_matrix_form_revised(refreshed, warm_basis=cold.basis)
            reference = solve_matrix_form_revised(refreshed)
            assert warm.warm_used
            assert warm.solution.status is reference.solution.status
            assert reference.solution.status is solve_form(refreshed, "scipy").status
            if reference.solution.is_optimal:
                assert violations(refreshed, warm.solution.values, tol=1e-9) == []

    def test_warm_resolve_detects_infeasibility(self):
        cold = solve_matrix_form_revised(_sample_form(10.0))
        tight = _sample_form(0.5)  # x + 2y >= 4 is impossible
        warm = solve_matrix_form_revised(tight, warm_basis=cold.basis)
        assert warm.solution.status is LPStatus.INFEASIBLE

    def test_mismatched_basis_falls_back_to_cold(self):
        form = _sample_form(10.0)
        bogus = BasisState(
            basis=np.asarray([0], dtype=np.intp),
            vstatus=np.zeros(1, dtype=np.int8),
        )
        result = solve_matrix_form_revised(form, warm_basis=bogus)
        assert result.solution.is_optimal
        assert not result.warm_used
        assert result.solution.values == solve_matrix_form_revised(form).solution.values

    def test_out_of_range_basis_falls_back_to_cold(self):
        form = _sample_form(10.0)
        cold = solve_matrix_form_revised(form)
        bogus = BasisState(
            basis=np.asarray([999, 1000], dtype=np.intp),
            vstatus=cold.basis.vstatus.copy(),
        )
        result = solve_matrix_form_revised(form, warm_basis=bogus)
        assert result.solution.is_optimal
        assert not result.warm_used
        assert result.solution.values == cold.solution.values

    def test_two_phase_program_is_not_kept_for_rhs_only_resolves(self):
        # No crash basis exists, so the cold solve runs phase 1 with
        # artificial columns.  A kept-alive program would price those
        # columns on the next rhs-only re-solve.
        form = _two_phase_form()
        handle = ProgramHandle()
        cold = solve_matrix_form_revised(form, handle=handle)
        assert cold.solution.is_optimal and cold.basis is not None
        assert handle.program is None and not handle.matches(form)

        warm = solve_matrix_form_revised(form, warm_basis=cold.basis, handle=handle)
        assert warm.warm_used
        assert violations(form, warm.solution.values, tol=1e-9) == []
        assert handle.matches(form)  # the warm-started program has no artificials

    def test_crash_started_program_is_kept(self):
        # A crash basis: no phase 1.
        form = matrix_form([([1, 1], "==", 1.0), ([2, 1], "<=", 1.5)], bounds=(0.0, 1.0))
        handle = ProgramHandle()
        result = solve_matrix_form_revised(form, handle=handle)
        assert result.solution.is_optimal
        assert handle.matches(form)

    def test_metrics_injected_via_recorder(self):
        recorder = MetricsRecorder()
        form = _sample_form(10.0)
        cold = solve_matrix_form_revised(form, recorder=recorder)
        warm = solve_matrix_form_revised(
            _sample_form(6.0), warm_basis=cold.basis, recorder=recorder
        )
        assert warm.warm_used
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["lp.solves"] == 2.0
        assert snapshot["counters"]["lp.cold_solves"] == 1.0
        assert snapshot["counters"]["lp.warm_start_hits"] == 1.0
        histograms = snapshot["histograms"]
        assert "lp.iterations" in histograms
        assert "lp.time.revised.crash" in histograms
        assert "lp.time.revised.dual" in histograms


def _feasibility_form(seed: int = 0, jobs: int = 8) -> MatrixForm:
    """A System (2) program: zero objective, equal releases, staircase deadlines."""
    from repro.core.affine import Affine
    from repro.core.formulations import build_allocation_model
    from repro.core.intervals import build_constant_intervals
    from repro.core.replanning import remaining_subinstance

    instance = random_unrelated_instance(jobs + 2, 3, seed=seed, cost_range=(2.0, 12.0))
    sub, _ = remaining_subinstance(
        instance, 1.0, list(range(jobs)), [1.0 - 0.11 * k for k in range(jobs)]
    )
    deadlines = [1.0 + 3.0 * (k + 1) for k in range(jobs)]
    return build_allocation_model(
        sub,
        build_constant_intervals(sub.release_dates + deadlines),
        deadlines=[Affine.const(d) for d in deadlines],
    ).form


class TestVerdictOnly:
    """``verdict_only`` answers without values and defers the refactorisation."""

    @staticmethod
    def _rhs(form: MatrixForm, scale: float) -> MatrixForm:
        return replace(form, b_ub=form.b_ub * scale)

    def _run(self, verdict_first: bool):
        # 0.97 is near this program's feasibility threshold; 1.3 is feasible
        # only after a few dual pivots, so the pivoted inverse is dirty.
        form = _feasibility_form()
        handle = ProgramHandle()
        first = solve_matrix_form_revised(self._rhs(form, 1.6), handle=handle)
        second = solve_matrix_form_revised(
            self._rhs(form, 1.3 * 0.97),
            warm_basis=first.basis,
            handle=handle,
            verdict_only=verdict_first,
        )
        program = handle.program
        deferred = program.refactor_due
        third = solve_matrix_form_revised(
            self._rhs(form, 0.97), warm_basis=second.basis, handle=handle
        )
        assert handle.program is program  # both re-solves rebound one program
        return second, deferred, third, program

    def test_deferred_refactor_leaves_the_state_of_a_full_solve(self):
        verdict, deferred, after_verdict, program = self._run(verdict_first=True)
        full, not_deferred, after_full, reference = self._run(verdict_first=False)

        assert verdict.solution.is_optimal and full.solution.is_optimal
        assert verdict.solution.iterations == full.solution.iterations > 0
        assert verdict.solution.values == {} and verdict.solution.objective_value is None
        assert full.solution.values
        assert deferred and not not_deferred
        assert not program.refactor_due  # the rebind ran it

        assert after_verdict.solution.status is after_full.solution.status
        assert after_verdict.solution.iterations == after_full.solution.iterations
        assert np.array_equal(program.b_inv, reference.b_inv)
        assert np.array_equal(program.x, reference.x)
        assert np.array_equal(program.basis, reference.basis)
        assert np.array_equal(program.vstatus, reference.vstatus)
        assert after_verdict.solution.values == after_full.solution.values

    def test_infeasible_and_cold_verdicts(self):
        form = _feasibility_form()
        cold = solve_matrix_form_revised(self._rhs(form, 1.6), verdict_only=True)
        assert cold.solution.is_optimal and cold.solution.values == {}
        assert cold.solution.iterations == solve_matrix_form_revised(
            self._rhs(form, 1.6)
        ).solution.iterations
        tight = solve_matrix_form_revised(
            self._rhs(form, 0.2), warm_basis=cold.basis, verdict_only=True
        )
        assert tight.solution.status is LPStatus.INFEASIBLE


def test_kept_program_with_a_singular_witness_refactorisation_falls_back(monkeypatch):
    """A failed refactorisation before a handle re-solve's witness read answers cold."""
    form = _feasibility_form()
    handle = ProgramHandle()
    solve_matrix_form_revised(TestVerdictOnly._rhs(form, 1.6), handle=handle)
    kept = handle.program
    assert kept is not None
    resolve = TestVerdictOnly._rhs(form, 1.3 * 0.97)
    assert handle.matches(resolve)

    original_optimum = revised_simplex._optimum
    failures = []

    def singular(*args):
        failures.append(True)
        raise revised_simplex._Numerics("singular basis")

    def optimum(program, form, verdict_only):
        if program is kept:
            assert program.updates_since  # the re-solve pivoted: the read refactorises
            program._refactor = singular
        return original_optimum(program, form, verdict_only)

    monkeypatch.setattr(revised_simplex, "_optimum", optimum)
    result = solve_matrix_form_revised(resolve, handle=handle)
    cold = solve_matrix_form_revised(resolve)

    assert failures == [True]
    assert not result.warm_used
    assert result.solution.status is cold.solution.status is LPStatus.OPTIMAL
    assert result.solution.objective_value == cold.solution.objective_value
    assert result.solution.values == cold.solution.values
    assert handle.program is not kept


class TestLayoutReuse:
    """A handle's CSC layout serves the next program of the same skeleton."""

    @staticmethod
    def _refreshed(form: MatrixForm, data: np.ndarray) -> MatrixForm:
        a_ub = sp.csr_matrix((data, form.a_ub.indices, form.a_ub.indptr), shape=form.a_ub.shape)
        return replace(form, a_ub=a_ub)

    def test_reused_layout_assembles_the_same_arrays(self):
        form = _feasibility_form(seed=1, jobs=6)
        first = _Program(form)
        assert first.layout is not None
        refreshed = self._refreshed(form, form.a_ub.data * 1.7)
        reused = _Program(refreshed, first.layout)
        assert reused.layout is first.layout
        fresh = _Program(refreshed)
        for name in ("indptr", "indices", "data", "cols"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
            assert getattr(reused, name).dtype == getattr(fresh, name).dtype, name

    def test_sub_drop_refresh_falls_back_to_full_assembly(self):
        form = _feasibility_form(seed=1, jobs=6)
        layout = _Program(form).layout
        data = form.a_ub.data * 1.7
        data[3] = _COEFF_DROP / 10
        refreshed = self._refreshed(form, data)
        assert not layout.fits(refreshed.a_ub, refreshed.a_eq)
        program = _Program(refreshed, layout)
        assert program.layout is None  # an entry was dropped
        assert program.data.size == _Program(form).data.size - 1
        assert_raw_arrays_match_scipy(refreshed)

    def test_other_structures_do_not_fit(self):
        form = _feasibility_form(seed=1, jobs=6)
        layout = _Program(form).layout
        other = _feasibility_form(seed=1, jobs=5)
        assert not layout.fits(other.a_ub, other.a_eq)
        assert not layout.fits(form.a_ub, other.a_eq)
        assert not layout.fits(form.a_ub.toarray(), form.a_eq)


class TestBackendRegistry:
    def test_canonical_backend_accepts_one_name_per_solver(self):
        from repro.lp.backends import canonical_backend

        assert BACKEND_LABELS == {"scipy": "scipy-highs", "revised": "simplex-revised"}
        assert canonical_backend("revised") == "simplex-revised"
        assert canonical_backend("scipy") == "scipy-highs"
        with pytest.raises(ValueError, match="unknown LP backend"):
            canonical_backend("no-such-solver")

    @pytest.mark.parametrize("alias", ["highs", "scipy-highs", "simplex", "simplex-revised"])
    def test_former_aliases_are_rejected_naming_the_two_names(self, alias):
        # One name per solver keeps equivalent policy specs in one store cell.
        message = r"unknown LP backend .*; accepted: revised, scipy$"
        with pytest.raises(ValueError, match=message):
            solve_form(_sample_form(), alias)
        with pytest.raises(ValueError, match=message):
            OnlineOfflineAdaptationScheduler(backend=alias)

    def test_inventory_reports_both_backends(self):
        from repro.lp.backends import backend_inventory

        rows = {info.name: info for info in backend_inventory()}
        assert {name: info.label for name, info in rows.items()} == BACKEND_LABELS
        assert rows["revised"].warm_start

    def test_tableau_reference_label_is_not_a_backend_name(self):
        # The frozen tableau stamps its own label; feeding it back as a
        # backend name must fail instead of silently switching solvers.
        from repro.lp.backends import canonical_backend

        solution = solve_matrix_form_tableau(_sample_form(sparse=False))
        assert solution.backend == "tableau"
        with pytest.raises(ValueError, match="unknown LP backend"):
            canonical_backend(solution.backend)

    def test_solve_form_dispatches_every_name(self):
        form = _sample_form()
        for backend, label in BACKEND_LABELS.items():
            solution = solve_form(form, backend)
            assert solution.backend == label
            assert solution.is_optimal
            assert violations(form, solution.values) == []

    @pytest.mark.parametrize("removed", ["tableau", "highspy"])
    def test_removed_backend_names_are_rejected(self, removed):
        from repro.core import check_deadline_feasibility
        from repro.core.replanning import ReplanProbe
        from repro.workload import random_unrelated_instance

        message = r"unknown LP backend .*; accepted: "
        with pytest.raises(ValueError, match=message):
            solve_form(_sample_form(), removed)
        with pytest.raises(ValueError, match=message):
            check_deadline_feasibility(
                random_unrelated_instance(3, 2, seed=1), [10.0] * 3, backend=removed
            )
        with pytest.raises(ValueError, match=message):
            ReplanProbe(backend=removed)


def _captured_probe_forms(scenario: str, preemptive: bool) -> list:
    """Every form ``ReplanProbe`` and ``FeasibilityProbe`` hand to a solver."""
    forms = []

    def recording(solve):
        def solve_and_record(form):
            forms.append(form)
            return solve(form)

        return solve_and_record

    instance = make_scenario(scenario, seed=0)
    deadlines = [
        job.release_date + (2.0 + j % 3) * instance.min_cost(j)
        for j, job in enumerate(instance.jobs)
    ]
    with pytest.MonkeyPatch.context() as patch:
        for module in (maxflow, replanning):
            patch.setattr(module, "_scipy_solve_form", recording(module._scipy_solve_form))
        ReplanProbe(preemptive=preemptive).check(instance, deadlines)
        minimize_max_weighted_flow(instance, preemptive=preemptive)
    return forms


def _scipy_system(form: MatrixForm) -> sp.csc_matrix:
    """``[[A_ub, I], [A_eq, 0]]`` assembled with scipy.sparse block algebra."""
    n = form.num_variables
    a_ub = _csr_block(form.a_ub, n)
    a_eq = _csr_block(form.a_eq, n)
    m_ub, m = a_ub.shape[0], a_ub.shape[0] + a_eq.shape[0]
    slacks = sp.csc_matrix(
        (np.ones(m_ub), (np.arange(m_ub), np.arange(m_ub))), shape=(m, m_ub)
    )
    return sp.hstack([sp.vstack([a_ub, a_eq], format="csc"), slacks], format="csc")


def assert_raw_arrays_match_scipy(form: MatrixForm, seed: int = 0) -> None:
    program = _Program(form)
    reference = _scipy_system(form)
    assert reference.shape == (program.m, program.n_total)
    for part in ("indptr", "indices"):
        ours = getattr(program, part)
        theirs = np.asarray(getattr(reference, part), dtype=ours.dtype)
        assert ours.tobytes() == theirs.tobytes(), part
    assert program.data.tobytes() == reference.data.tobytes()
    columns = np.repeat(np.arange(program.n_total), np.diff(reference.indptr))
    assert program.cols.tobytes() == columns.astype(program.cols.dtype).tobytes()

    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(program.n_total)
        y = rng.standard_normal(program.m)
        assert program._matvec(v).tobytes() == (reference @ v).tobytes()
        assert program._rmatvec(y).tobytes() == (reference.T @ y).tobytes()


def _form(a_ub: sp.csr_matrix, a_eq: sp.csr_matrix) -> MatrixForm:
    n = max(a_ub.shape[1], a_eq.shape[1])
    return MatrixForm(
        c=np.zeros(n),
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=a_ub,
        b_ub=np.ones(a_ub.shape[0]),
        a_eq=a_eq,
        b_eq=np.ones(a_eq.shape[0]),
        bounds=np.tile([0.0, np.inf], (n, 1)),
    )


class TestRawArrays:
    """The CSC arrays and products equal scipy's, byte for byte."""

    @pytest.mark.parametrize("preemptive", [False, True], ids=["divisible", "preemptive"])
    @pytest.mark.parametrize("scenario", available_scenarios())
    def test_probe_forms(self, scenario, preemptive):
        forms = _captured_probe_forms(scenario, preemptive)
        assert forms
        for index, form in enumerate(forms):
            assert_raw_arrays_match_scipy(form, seed=index)

    def test_sub_drop_entries(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 9))
        dense[rng.random(dense.shape) < 0.4] = 0.0
        dense[1, 2] = _COEFF_DROP / 10
        dense[4, 7] = -_COEFF_DROP / 100
        form = _form(sp.csr_matrix(dense[:4]), sp.csr_matrix(dense[4:]))
        assert_raw_arrays_match_scipy(form)
        program = _Program(form)
        assert np.abs(program.data).min() >= _COEFF_DROP

    @pytest.mark.parametrize("empty", ["a_ub", "a_eq"])
    def test_one_empty_block(self, empty):
        rng = np.random.default_rng(5)
        full = sp.random(5, 8, density=0.4, format="csr", random_state=rng)
        none = sp.csr_matrix((0, 8))
        blocks = (none, full) if empty == "a_ub" else (full, none)
        assert_raw_arrays_match_scipy(_form(*blocks))


def test_solve_path_builds_no_scipy_sparse_objects(monkeypatch):
    """With scipy's stacking, products and indexing poisoned, the solves still run.

    The poison covers every revised solve of a
    ``deadline-driven:lp_targets=true`` simulation on the revised backend
    (33 target-search probes on this instance) and one cold two-phase
    solve.
    """

    def poisoned(*args, **kwargs):
        raise AssertionError("the revised simplex went through scipy.sparse")

    def poison(patch):
        patch.setattr(sp, "vstack", poisoned)
        patch.setattr(_cs_matrix, "_matmul_vector", poisoned)
        patch.setattr(_cs_matrix, "__getitem__", poisoned)

    solve = replanning.solve_matrix_form_revised
    revised_solves = []

    def poisoned_solve(*args, **kwargs):
        revised_solves.append(args[0])
        with pytest.MonkeyPatch.context() as patch:
            poison(patch)
            return solve(*args, **kwargs)

    monkeypatch.setattr(replanning, "solve_matrix_form_revised", poisoned_solve)
    instance = random_unrelated_instance(10, 3, seed=3, cost_range=(2, 12))
    result = simulate(instance, DeadlineDrivenScheduler(lp_targets=True, backend="revised"))
    result.schedule.validate()
    assert len(result.completion_times) == instance.num_jobs
    assert len(revised_solves) >= 10

    poison(monkeypatch)
    recorder = MetricsRecorder()
    form = _two_phase_form()  # no crash basis: phase 1 runs
    cold = solve_matrix_form_revised(form, recorder=recorder)
    assert cold.solution.is_optimal
    assert "lp.time.revised.phase1" in recorder.snapshot()["histograms"]
