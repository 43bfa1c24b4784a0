"""The linear-programming layer (substrate S1).

The paper expresses all of its scheduling results as linear programs; the
scheduling modules of :mod:`repro.core` build them straight in matrix form
(:mod:`repro.core.formulations`).  This subpackage provides that form
(:class:`MatrixForm`) and two interchangeable solving backends
(:mod:`repro.lp.backends` maps the accepted names onto them and
:func:`repro.lp.backends.solve_form` dispatches a form to one):

* :mod:`repro.lp.scipy_backend` — SciPy's HiGHS wrapper (production default,
  and the only solver of the off-line searches' objective LPs);
* :mod:`repro.lp.revised_simplex` — the in-house sparse revised simplex, with
  warm re-solves for the zero-objective replanning probes.

The expression DSL the tests state reference programs in, and the frozen
dense tableau they cross-check the revised simplex against, live in
``tests/reference/lp``.

Public API
----------
:class:`MatrixForm`
    The lowered program (CSR or dense blocks, right-hand sides, bounds).
:class:`LPSolution`, :class:`LPStatus`
    Solve results.
"""

from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm

__all__ = [
    "LPSolution",
    "LPStatus",
    "MatrixForm",
]
