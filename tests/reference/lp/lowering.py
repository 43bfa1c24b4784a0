"""Lowering of a :class:`~tests.reference.lp.model.LinearProgram` to a :class:`MatrixForm`.

The constraint blocks come in two flavours selected by the ``sparse`` flag of
:func:`to_matrix_form`: dense arrays, which the frozen tableau
(:mod:`tests.reference.lp.tableau`) needs, or CSR matrices, the flavour
:func:`repro.core.formulations.build_allocation_model` reproduces bit for bit
(``tests/core/test_allocation_lowering.py``).

Assembly is vectorised in both flavours: coefficients are collected as COO
triplets in flat Python lists and scattered into the target matrix in one
NumPy/SciPy call, instead of materialising one dense row per constraint.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.lp.standard_form import ConstraintBlock, MatrixForm

from .constraint import Constraint
from .model import LinearProgram

__all__ = ["to_matrix_form"]


def _lower_block(
    constraints: Sequence[Constraint],
    flips: Sequence[float],
    num_cols: int,
    sparse: bool,
) -> Tuple[ConstraintBlock, np.ndarray]:
    """Lower one constraint block to ``(matrix, rhs)``.

    ``flips`` holds ``+1.0``/``-1.0`` per constraint (``>=`` rows are negated
    into the ``<=`` block).  The COO triplets are extracted with vectorised
    NumPy primitives so that the per-row Python overhead is O(rows), not
    O(nnz); materialisation is then a single CSR construction (O(nnz)) or a
    single dense fancy-index scatter (O(rows x cols) memory traffic).
    """
    num_rows = len(constraints)
    flip_arr = np.asarray(flips, dtype=float)
    rhs = np.fromiter(
        (con.expression.constant for con in constraints), dtype=float, count=num_rows
    )
    rhs = -flip_arr * rhs if num_rows else np.zeros(0)
    counts = np.fromiter(
        (len(con.expression.coefficients) for con in constraints),
        dtype=np.intp,
        count=num_rows,
    )
    nnz = int(counts.sum()) if num_rows else 0
    rows = np.repeat(np.arange(num_rows), counts)
    cols = np.fromiter(
        chain.from_iterable(con.expression.coefficients for con in constraints),
        dtype=np.intp,
        count=nnz,
    )
    data = np.fromiter(
        chain.from_iterable(con.expression.coefficients.values() for con in constraints),
        dtype=float,
        count=nnz,
    )
    data *= np.repeat(flip_arr, counts)

    if sparse:
        matrix: ConstraintBlock = sp.csr_matrix(
            (data, (rows, cols)), shape=(num_rows, num_cols)
        )
    else:
        matrix = np.zeros((num_rows, num_cols))
        if nnz:
            # Within one constraint the variable indices are dict keys
            # (unique), so plain fancy-index scatter is exact.
            matrix[rows, cols] = data
    return matrix, rhs


def to_matrix_form(model: LinearProgram, *, sparse: bool = False) -> MatrixForm:
    """Lower ``model`` to its :class:`MatrixForm`.

    Parameters
    ----------
    model:
        The linear program to lower.
    sparse:
        When ``True`` the constraint blocks are built as CSR matrices in
        O(nnz) time; when ``False`` (default) they are dense arrays.
    """
    n = model.num_variables

    # Objective ----------------------------------------------------------
    sign = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for idx, coeff in model.objective.terms():
        c[idx] = sign * coeff
    objective_constant = model.objective.constant

    # Constraint blocks -----------------------------------------------------
    ub_cons: List[Constraint] = []
    ub_flips: List[float] = []
    eq_cons: List[Constraint] = []

    for con in model.constraints:
        if con.sense == "==":
            eq_cons.append(con)
        else:
            ub_cons.append(con)
            ub_flips.append(1.0 if con.sense == "<=" else -1.0)  # >= rows are negated

    a_ub, b_ub = _lower_block(ub_cons, ub_flips, n, sparse)
    a_eq, b_eq = _lower_block(eq_cons, [1.0] * len(eq_cons), n, sparse)

    # Bounds ----------------------------------------------------------------
    # Cached on the model (variables are append-only); shared by reference —
    # mutate only through MatrixForm.with_bounds, which copies.
    bounds = model.bounds_array()

    return MatrixForm(
        c=c,
        objective_constant=objective_constant,
        objective_sign=sign,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
    )
