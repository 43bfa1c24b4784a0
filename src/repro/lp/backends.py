"""LP backend registry: accepted names, dispatch and warm-start support.

Two backends solve production LPs: HiGHS, called through the bindings scipy
bundles, and the in-house sparse revised simplex.  The revised simplex
decides zero-objective (feasibility) programs only and raises ``ValueError``
on a nonzero cost, so a backend is chosen by name only for those:
:class:`repro.core.replanning.ReplanProbe`,
:func:`repro.core.deadline.check_deadline_feasibility` and the ``backend=``
parameter of the ``deadline-driven`` policy (``online-offline`` validates
its ``backend=`` but solves no feasibility program).  The programs that
minimise an objective (the milestone searches of :mod:`repro.core.maxflow`
and ``online-offline``, the makespan LP of :mod:`repro.core.makespan`)
always go to HiGHS and take no name.

This module is the single place that knows which name selects which solver:
``"scipy"`` or ``"revised"``, one per solver, so equivalent policy specs
share one store cell.  :func:`solve_form` is the one dispatch from a name to a
solver for a lowered :class:`~repro.lp.standard_form.MatrixForm`: the
one-shot solves of :mod:`repro.core.deadline` call it.  ``ReplanProbe``
(which keeps warm-start state per backend) resolves names through
:func:`canonical_backend`; ``repro-sched info --lp-backends`` renders
:func:`backend_inventory`.  The frozen dense tableau the tests cross-check
against is not a backend: it lives in ``tests/reference/tableau.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .solution import LPSolution
from .standard_form import MatrixForm

__all__ = [
    "BACKEND_LABELS",
    "BackendInfo",
    "backend_inventory",
    "canonical_backend",
    "solve_form",
]

#: Accepted name → solution-backend label.  The label is what a solve
#: through that backend stamps on :class:`repro.lp.LPSolution.backend` (and
#: what records produced without reaching a solver must match); it is not
#: itself an accepted name.
BACKEND_LABELS = {
    "scipy": "scipy-highs",
    "revised": "simplex-revised",
}


def canonical_backend(name: str) -> str:
    """Resolve an accepted backend name to its solution label.

    Raises ``ValueError`` for unknown names, listing what is accepted.
    """
    try:
        return BACKEND_LABELS[name]
    except KeyError:
        raise ValueError(
            f"unknown LP backend {name!r}; accepted: "
            + ", ".join(sorted(BACKEND_LABELS))
        ) from None


def solve_form(form: MatrixForm, backend: str = "scipy") -> LPSolution:
    """Solve a lowered :class:`~repro.lp.standard_form.MatrixForm` with ``backend``.

    ``backend`` is a name accepted by :func:`canonical_backend`: HiGHS
    through :func:`repro.lp.scipy_backend.solve_matrix_form`, or a cold solve
    with the in-house revised simplex
    (:func:`repro.lp.revised_simplex.solve_matrix_form`), which raises
    ``ValueError`` when ``form.c`` has a nonzero entry.
    """
    if canonical_backend(backend) == "scipy-highs":
        from .scipy_backend import solve_matrix_form
    else:
        from .revised_simplex import solve_matrix_form
    return solve_matrix_form(form)


@dataclass(frozen=True)
class BackendInfo:
    """One row of the ``info --lp-backends`` inventory."""

    name: str
    label: str
    warm_start: bool
    description: str


def backend_inventory() -> List[BackendInfo]:
    """Every backend with its accepted name and solution label."""
    return [
        BackendInfo(
            name="scipy",
            label="scipy-highs",
            warm_start=False,
            description="HiGHS via the bindings scipy bundles, as linprog calls it "
            "(production default)",
        ),
        BackendInfo(
            name="revised",
            label="simplex-revised",
            warm_start=True,
            description="in-house sparse revised simplex, zero-objective programs only "
            "(warm dual re-solves)",
        ),
    ]
