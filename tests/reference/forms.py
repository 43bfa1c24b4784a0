"""Small linear programs stated as a :class:`MatrixForm`, and a witness check.

Tests write a program as dense rows ``(coefficients, sense, rhs)`` with sense
``"<="``, ``">="`` or ``"=="``; :func:`matrix_form` keeps the ``<=`` and
negated ``>=`` rows in the inequality block in their given order, the
``==`` rows in the equality block.  :func:`violations` lists what a solver's
point breaks.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np
import scipy.sparse as sp

from repro.lp.standard_form import MatrixForm

__all__ = ["matrix_form", "violations"]

_FLIP = {"<=": 1.0, ">=": -1.0, "==": 1.0}


def matrix_form(rows=(), *, num_vars=0, bounds=(0.0, np.inf), c=(), sparse=True) -> MatrixForm:
    """The minimisation form of ``rows``, CSR blocks unless ``sparse=False``.

    ``bounds`` is one ``(lower, upper)`` pair for every variable or one pair
    per variable, and ``c`` defaults to zeros.  The number of variables is
    ``num_vars``, else the length of ``c``, else that of the first row.
    """
    n = num_vars or len(c) or (len(rows[0][0]) if rows else 0)

    def block(equality: bool):
        picked = [
            (_FLIP[sense] * np.asarray(a, dtype=float), _FLIP[sense] * rhs)
            for a, sense, rhs in rows
            if (sense == "==") == equality
        ]
        matrix = np.array([a for a, _ in picked]).reshape(len(picked), n)
        rhs = np.array([b for _, b in picked], dtype=float)
        return (sp.csr_matrix(matrix) if sparse else matrix), rhs

    (a_ub, b_ub), (a_eq, b_eq) = block(False), block(True)
    return MatrixForm(
        c=np.array(c, dtype=float) if len(c) else np.zeros(n),
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=np.broadcast_to(np.asarray(bounds, dtype=float), (n, 2)).copy(),
    )


def violations(form: MatrixForm, values: Mapping[int, float], tol: float = 1e-6) -> List[str]:
    """The bounds and rows of ``form`` that ``values`` (an ``LPSolution.values``
    map; an absent column is 0) breaks by more than ``tol``."""
    x = np.array([values.get(k, 0.0) for k in range(form.num_variables)])
    problems = [
        f"x{k} = {x[k]} outside [{lower}, {upper}]"
        for k, (lower, upper) in enumerate(form.bounds)
        if not lower - tol <= x[k] <= upper + tol
    ]
    excesses = {"<=": form.a_ub @ x - form.b_ub, "==": abs(form.a_eq @ x - form.b_eq)}
    for sense, excess in excesses.items():
        problems += [f"{sense} row {r} violated by {e:.3e}" for r, e in enumerate(excess) if e > tol]
    return problems
