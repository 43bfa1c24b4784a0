"""LP solver benches on the System (3) programs of the milestone search.

The off-line searches solve every objective LP with HiGHS, so no bench here
compares the two backends on a whole search any more; the solver-level
comparisons live in ``tests/lp/test_revised_properties.py`` and
``tests/property/test_lp_properties.py``.

The first bench pits the in-house revised simplex against the frozen dense
tableau on the zero-objective twin of a large mid-milestone System (3)
program (``c`` zeroed, ``F`` pinned at the range's upper milestone: the
revised simplex decides feasibility programs only).  The revised solve must
consume the sparse lowering without densifying it, reach HiGHS's verdict
with a valid witness and finish before the tableau clears 25 pivots.

The second bench measures the matrix *lowering* itself: building the CSR
form of the largest System (3) program the bench builds must be at least
twice as fast as building it and densifying it (``MatrixForm.densified``,
what the frozen tableau reference consumes), and both forms must solve to
identical objectives.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.analysis import format_table
from repro.core.affine import Affine
from repro.core.formulations import build_allocation_model
from repro.core.intervals import build_affine_intervals
from repro.core.milestones import compute_milestones, deadline_function
from repro.core.tolerances import ABS_TOL
from repro.lp.scipy_backend import solve_matrix_form
from repro.workload import random_unrelated_instance


def _largest_bench_inputs(num_jobs: int, num_machines: int) -> dict:
    """Arguments of the parametric System (3) LP of a mid-search milestone range."""
    instance = random_unrelated_instance(num_jobs, num_machines, seed=0)
    deadlines = [deadline_function(job) for job in instance.jobs]
    epochal = deadlines + [Affine.const(job.release_date) for job in instance.jobs]
    milestones = compute_milestones(instance.jobs)
    mid = len(milestones) // 2
    low, high = milestones[mid], milestones[mid + 1]
    sample = 0.5 * (low + high)
    return dict(
        instance=instance,
        intervals=build_affine_intervals(epochal, sample),
        deadlines=deadlines,
        objective_bounds=(low, high),
        sample_objective=sample,
    )


def _largest_bench_feasibility_lp(num_jobs: int, num_machines: int):
    """The zero-objective twin of a mid-search System (3) LP, in CSR form.

    The parametric program of a mid-search milestone range with ``c``
    zeroed and ``F`` pinned at the range's upper milestone.
    """
    inputs = _largest_bench_inputs(num_jobs, num_machines)
    alloc = build_allocation_model(**inputs)
    high = inputs["objective_bounds"][1]
    bounds = alloc.form.bounds.copy()
    bounds[alloc.objective_column] = (high, high)
    return replace(alloc.form, c=np.zeros_like(alloc.form.c)).with_bounds(bounds)


def _violation(form, values: dict) -> float:
    """The largest row or bound violation of ``values`` in ``form``."""
    x = np.array([values[j] for j in range(form.num_variables)])
    return max(
        float(np.max(form.a_ub @ x - form.b_ub, initial=0.0)),
        float(np.max(np.abs(form.a_eq @ x - form.b_eq), initial=0.0)),
        float(np.max(form.bounds[:, 0] - x)),
        float(np.max(x - form.bounds[:, 1])),
    )


def test_revised_simplex_beats_dense_tableau_without_densifying(monkeypatch):
    """The revised simplex wins on the big lowering LP.

    The zero-objective twin of the 774x13225 mid-milestone System (3)
    program (num_jobs=60, num_machines=6).  The revised simplex must consume
    the sparse lowering directly — ``MatrixForm.densified`` is poisoned for
    the duration — reach HiGHS's verdict with a valid witness, and beat the
    frozen dense tableau so decisively that a full revised solve (~1100
    pivots) finishes before the tableau clears even 25 of its own pivots
    (each tableau pivot rewrites the full rows x cols array, ~10M entries
    here).
    """
    from repro.lp.revised_simplex import solve_matrix_form_revised
    from repro.lp.standard_form import MatrixForm
    from tests.reference.tableau import solve_matrix_form as solve_matrix_form_tableau

    sparse_form = _largest_bench_feasibility_lp(60, 6)
    assert (sparse_form.num_constraints, sparse_form.num_variables) == (774, 13225)
    dense_form = sparse_form.densified()
    reference = solve_matrix_form(sparse_form)

    monkeypatch.setattr(
        MatrixForm,
        "densified",
        lambda self: (_ for _ in ()).throw(
            AssertionError("the revised simplex must not densify")
        ),
    )
    start = time.perf_counter()
    revised = solve_matrix_form_revised(sparse_form)
    revised_seconds = time.perf_counter() - start
    monkeypatch.undo()

    start = time.perf_counter()
    partial = solve_matrix_form_tableau(dense_form, max_iterations=25)
    tableau_25_pivots_seconds = time.perf_counter() - start

    print()
    print(
        format_table(
            ["solver", "seconds", "outcome"],
            [
                ("revised (full solve)", revised_seconds,
                 f"{revised.solution.status}, {revised.solution.iterations} pivots"),
                ("tableau (25 pivots)", tableau_25_pivots_seconds,
                 str(partial.status)),
            ],
            title="Revised simplex vs dense tableau on the 774x13225 bench LP",
            float_format=".3g",
        )
    )

    assert revised.solution.is_optimal and reference.is_optimal
    assert _violation(sparse_form, revised.solution.values) <= 1e-9
    assert not partial.is_optimal  # 25 pivots are nowhere near enough
    assert revised_seconds < tableau_25_pivots_seconds, (
        f"revised full solve {revised_seconds:.2f}s vs tableau 25-pivot "
        f"partial {tableau_25_pivots_seconds:.2f}s"
    )


def _best_lowering_time(inputs: dict, sparse: bool, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        form = build_allocation_model(**inputs).form
        if not sparse:
            form.densified()
        best = min(best, time.perf_counter() - start)
    return best


def test_sparse_vs_dense_lowering(bench_scale):
    # Sizes chosen with headroom over the 2x gate: the dense cost grows with
    # rows x cols while the sparse cost grows with nnz, so the ratio widens
    # with size.
    num_jobs, num_machines = (140, 8) if bench_scale == "full" else (120, 8)
    inputs = _largest_bench_inputs(num_jobs, num_machines)
    repeats = 10 if bench_scale == "full" else 5

    dense_seconds = _best_lowering_time(inputs, sparse=False, repeats=repeats)
    sparse_seconds = _best_lowering_time(inputs, sparse=True, repeats=repeats)
    speedup = dense_seconds / max(sparse_seconds, 1e-12)

    form = build_allocation_model(**inputs).form
    dense_solution = solve_matrix_form(form.densified())
    sparse_solution = solve_matrix_form(form)

    print()
    print(
        format_table(
            ["lowering", "best seconds", "objective"],
            [
                ("dense", dense_seconds, dense_solution.objective_value),
                ("sparse (CSR)", sparse_seconds, sparse_solution.objective_value),
            ],
            title=f"Dense vs sparse lowering of the largest bench LP "
            f"({form.num_variables} variables, {form.num_constraints} constraints, "
            f"{speedup:.1f}x)",
            float_format=".6g",
        )
    )

    assert dense_solution.is_optimal and sparse_solution.is_optimal
    assert abs(dense_solution.objective_value - sparse_solution.objective_value) <= ABS_TOL * (
        1.0 + abs(dense_solution.objective_value)
    )
    assert speedup >= 2.0, (
        f"sparse lowering expected >= 2x faster than dense, got {speedup:.2f}x"
    )
