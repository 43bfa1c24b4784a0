"""LP backend registry: canonical names, aliases, dispatch and warm-start support.

Two backends solve production LPs: scipy's HiGHS wrapper and the in-house
sparse revised simplex.  A backend is chosen by name only for the
zero-objective feasibility programs: :class:`repro.core.replanning.ReplanProbe`,
:func:`repro.core.deadline.check_deadline_feasibility` and the ``backend=``
parameter of the ``online-offline`` and ``deadline-driven`` policies.  The
programs that minimise an objective (the milestone search of
:mod:`repro.core.maxflow`, the makespan LP of :mod:`repro.core.makespan`)
always go to HiGHS and take no name.

This module is the single place that knows which requested names map to
which solver.  :func:`solve_form` is the one dispatch from a name to a
solver for a lowered :class:`~repro.lp.standard_form.MatrixForm`: the
one-shot solves of :mod:`repro.core.deadline` call it.  ``ReplanProbe``
(which keeps warm-start state per backend) resolves names through
:func:`canonical_backend`; ``repro-sched info --lp-backends`` renders
:func:`backend_inventory`.  The frozen dense tableau the tests cross-check
against is not a backend: it lives in ``tests/reference/lp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .solution import LPSolution
from .standard_form import MatrixForm

__all__ = [
    "BACKEND_LABELS",
    "BackendInfo",
    "backend_inventory",
    "canonical_backend",
    "solve_form",
]

#: Requested-name → canonical solution-backend label.  The label is what a
#: solve through that backend stamps on :class:`repro.lp.LPSolution.backend`
#: (and what records produced without reaching a solver must match).
BACKEND_LABELS = {
    "scipy": "scipy-highs",
    "highs": "scipy-highs",
    "scipy-highs": "scipy-highs",
    "simplex": "simplex-revised",
    "revised": "simplex-revised",
    "pure-python": "simplex-revised",
    "simplex-revised": "simplex-revised",
}


def canonical_backend(name: str) -> str:
    """Resolve a requested backend name/alias to its canonical label.

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

    ``backend`` is any name accepted by :func:`canonical_backend`: HiGHS
    through :func:`repro.lp.scipy_backend.solve_matrix_form`, or a cold solve
    with the in-house revised simplex
    (:func:`repro.lp.revised_simplex.solve_matrix_form`).
    """
    if canonical_backend(backend) == "scipy-highs":
        from .scipy_backend import solve_matrix_form
    else:
        from .revised_simplex import solve_matrix_form
    return solve_matrix_form(form)


@dataclass(frozen=True)
class BackendInfo:
    """One row of the ``info --lp-backends`` inventory."""

    label: str
    aliases: Tuple[str, ...]
    warm_start: bool
    description: str


def _aliases(label: str) -> Tuple[str, ...]:
    return tuple(
        name for name, target in BACKEND_LABELS.items() if target == label and name != label
    )


def backend_inventory() -> List[BackendInfo]:
    """Every backend with its accepted aliases."""
    return [
        BackendInfo(
            label="scipy-highs",
            aliases=_aliases("scipy-highs"),
            warm_start=False,
            description="HiGHS via scipy.optimize.linprog (production default)",
        ),
        BackendInfo(
            label="simplex-revised",
            aliases=_aliases("simplex-revised"),
            warm_start=True,
            description="in-house sparse revised simplex (warm dual re-solves)",
        ),
    ]
