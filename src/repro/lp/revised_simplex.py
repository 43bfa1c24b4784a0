"""Revised simplex over the CSR blocks of a :class:`MatrixForm`.

The tableau reference (frozen in ``tests/reference/lp/tableau.py``) densifies
the whole constraint matrix and rewrites every entry on every pivot — O(rows ×
cols) per iteration and O(rows × cols) memory.  This module is the in-house
fast path: a **revised** simplex that keeps the constraint matrix sparse and
maintains only a dense ``m × m`` basis inverse.

The sparse matrix lives in raw numpy arrays, not in ``scipy.sparse``
objects: the probe programs have tens to hundreds of rows and are re-solved
thousands of times per simulation, where scipy's per-call dispatch cost more
than the arithmetic.  Each program assembles its two CSR blocks once into
CSC ``indptr``/``indices``/``data`` plus a per-entry column id.  ``A @ v``
and ``A.T @ y`` are single ``np.bincount`` calls.  They add the same products
in the same order as scipy's ``csc_matvec``/``csr_matvec``, so each result
equals scipy's ``A @ v``/``A.T @ y`` bit for bit.  A refactorisation
scatters the basis columns into the dense ``m × m`` array straight from
those arrays.

Differences from the legacy tableau (this is a *semantic* change — the
optimal vertex reported for degenerate programs may differ — shipped with the
``CODE_EPOCH`` 2005.5 → 2005.6 bump):

* **Bounded variables are native.**  General ``lo <= x <= hi`` bounds are
  handled by nonbasic-at-lower/at-upper statuses instead of the legacy
  shift/reflect/split rewriting, so box bounds never become rows.
* **Phase 1 only pays for what is infeasible.**  Artificials are introduced
  only for equality rows and for inequality rows whose slack starts out of
  bounds; in the replanning LPs (all capacity rows, non-negative lengths)
  the slack basis is immediately feasible and phase 1 is skipped entirely.
* **Deterministic Dantzig/Bland pivoting.**  Entering variables are picked
  by most-negative reduced cost with ties broken towards the smallest
  column index; after a long degenerate stall the rule permanently drops to
  Bland's (smallest eligible index), which guarantees termination.
* **Warm re-solves.**  :func:`solve_matrix_form_revised` accepts the
  :class:`BasisState` of a previous solve of the *same skeleton* (possibly
  with new bounds, right-hand sides or refreshed coefficient values) and
  runs **dual simplex** iterations from that basis.  The probe LPs this is
  built for stay dual feasible by construction — the System (2) feasibility
  programs have a zero objective (any basis is dual feasible) and the
  System (3) re-solves only move the objective variable's bounds — so a
  refresh typically needs a handful of pivots instead of a full solve.
  Anything that invalidates the warm start (singular refactorisation, dual
  infeasibility, stalling) falls back to the cold path; the answer never
  depends on whether the fast path was available.

The replanning probes re-solve each skeleton thousands of times, mostly to
read a verdict, so the re-solve path pays only for what the caller reads:

* **Verdict-only solves** (``verdict_only=True``) return the status and pivot
  count without building the value map, and *defer* the refactorisation a
  full answer runs before reading ``x`` to the program's next rebind.  The
  deferred refactorisation rebuilds the same inverse from the same basis,
  so the state the next re-solve starts from — and every later pivot,
  verdict and witness — is bit-identical to a full solve's.  (The one
  theoretical difference: a basis the refactorisation found singular would
  already have returned its verdict.)
* **One layout per skeleton.**  A :class:`ProgramHandle` keeps the CSC
  layout of the last assembled program; the next program of the same
  skeleton — same index arrays, same equality block, refreshed values —
  scatters its values into a copy instead of re-sorting, and falls back to
  full assembly when a value falls below :data:`_COEFF_DROP`.
* **A lean dual pivot.**  On ``c == 0`` programs the entering test is one
  product with a ±1/0 sign vector kept in step with the statuses, and the
  basic bounds and values are updated in place rather than gathered per
  pivot.  No reduction changes order, so pivots are unchanged.

Like the tableau, constraint coefficients below :data:`_COEFF_DROP` are
dropped before the solve (the PR 5 near-zero-pivot regression class), so the
two in-house backends and HiGHS agree on which coefficients exist at all.

Witness discipline: warm-started vertices depend on the *history* of bases,
so a warm witness is a deterministic function of the caller's solve sequence
rather than of each LP in isolation.  That is part of the CODE_EPOCH 2005.6
semantics: within a run the sequence is deterministic, so schedules and
digests reproduce exactly, but byte-identity against a history-free reference
holds only for the verdict and objective, not the vertex.  Callers that need
a history-free vertex must solve cold (omit ``warm_basis``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..obs.clock import wall_clock
from ..obs.metrics import Recorder, get_recorder
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, solve_constant_form

__all__ = [
    "BasisState",
    "ProgramHandle",
    "RevisedSolve",
    "solve_matrix_form",
    "solve_matrix_form_revised",
]

_EPS = 1e-9
#: See the module docstring (and the frozen tableau's ``_COEFF_DROP``): keep the
#: drop threshold byte-identical across the in-house backends.
_COEFF_DROP = 1e-9
#: Phase-1 infeasibility threshold, matching the legacy tableau.
_FEAS_TOL = 1e-7
#: Pivot elements smaller than this trigger a refactorisation (and a cold
#: fallback on warm paths) instead of an unstable basis update.
_PIVOT_TOL = 1e-11
#: Pivots between full refactorisations of the basis inverse.
_REFACTOR_EVERY = 100

_BACKEND = "simplex-revised"

# Nonbasic/basic variable statuses.
_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2
_FREE = 3


@dataclass
class BasisState:
    """Persistable optimal-basis snapshot of one revised-simplex solve.

    ``basis`` holds the ``m`` basic column indices (structural columns first,
    then one slack per inequality row); ``vstatus`` holds the
    basic/at-lower/at-upper/free status of all ``n + m_ub`` columns.  A state
    is only emitted when no artificial column remained basic, so it can be
    refactorised against any refresh of the same skeleton.
    """

    basis: np.ndarray
    vstatus: np.ndarray


@dataclass
class RevisedSolve:
    """A solve plus the reusable basis (``None`` when not reusable)."""

    solution: LPSolution
    basis: Optional[BasisState]
    warm_used: bool = False


@dataclass
class ProgramHandle:
    """Opaque kept-alive solver state for repeated re-solves of one program.

    When the caller presents a form whose matrix blocks, costs and bounds are
    the *same objects* the cached program was assembled from — the
    :class:`~repro.core.replanning.ReplanProbe` event cache guarantees exactly
    that within one replanning event — only the right-hand sides can have
    changed, so the previous factorisation is still exact: the re-solve skips
    assembly and refactorisation entirely and goes straight to dual pivots.
    Any mismatch silently falls back to the ``warm_basis``/cold paths.  The
    handle holds strong references to the blocks, so object identity is sound.
    """

    program: Optional["_Program"] = None
    blocks: Optional[Tuple[object, object, object, object]] = None
    #: The CSC layout of the last assembled program, reused by the next
    #: program of the same skeleton (see :class:`_Layout`).
    layout: Optional["_Layout"] = None

    def matches(self, form: MatrixForm) -> bool:
        blocks = self.blocks
        return (
            self.program is not None
            and blocks is not None
            and form.a_ub is blocks[0]
            and form.a_eq is blocks[1]
            and form.c is blocks[2]
            and form.bounds is blocks[3]
        )

    def stash(self, program: "_Program", form: MatrixForm) -> None:
        """Keep ``program`` for the next re-solve, if it is free of artificials.

        A program that went through the two-phase cold start keeps its
        artificial columns (``art_rows`` and the extended ``vstatus``) even
        once they have all left the basis; :meth:`_Program._dual` would price
        them on the next rhs-only re-solve and could pivot one back in.  Such
        a program is not kept: the next solve warm-starts a fresh program
        from its basis snapshot instead.
        """
        if (
            program.basis.size
            and not program.art_rows.size
            and bool((program.basis < program.n_total).all())
        ):
            self.program = program
            self.blocks = (form.a_ub, form.a_eq, form.c, form.bounds)
        else:
            self.program = None
            self.blocks = None


class _Numerics(Exception):
    """Internal: unrecoverable numerical trouble on the current basis."""


def _csr_block(block: object, num_cols: int) -> sp.csr_matrix:
    """Coerce a lowered block to CSR with sub-:data:`_COEFF_DROP` entries removed.

    The input block is only copied when a sub-tolerance entry actually has to
    be dropped — the hot re-solve path shares the caller's arrays.
    """
    if sp.issparse(block):
        mat = block.tocsr()  # type: ignore[union-attr]
    else:
        arr = np.asarray(block, dtype=float)
        if arr.size == 0:
            return sp.csr_matrix((arr.shape[0], num_cols))
        mat = sp.csr_matrix(arr)
    if mat.nnz:
        keep = np.abs(mat.data) >= _COEFF_DROP
        if not keep.all():
            mat = mat.copy()
            mat.data = np.where(keep, mat.data, 0.0)
            mat.eliminate_zeros()
    return mat


def _place_nonbasic(
    lo: np.ndarray, hi: np.ndarray, vstatus: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Snap nonbasic statuses onto finite bounds; return them with the values.

    An at-lower column without a finite lower bound moves to its upper bound,
    or becomes free; likewise at-upper.  Nonbasic columns sit at their bound
    (free ones at zero); basic entries of the returned values are zero.
    """
    status = vstatus.copy()
    lo_finite = np.isfinite(lo)
    hi_finite = np.isfinite(hi)
    lost_lower = (status == _AT_LOWER) & ~lo_finite
    lost_upper = (status == _AT_UPPER) & ~hi_finite
    status[lost_lower] = np.where(hi_finite[lost_lower], _AT_UPPER, _FREE)
    status[lost_upper] = np.where(lo_finite[lost_upper], _AT_LOWER, _FREE)
    x = np.where(status == _AT_LOWER, lo, np.where(status == _AT_UPPER, hi, 0.0))
    return status, x


class _Layout:
    """The CSC layout of one ``[[A_ub, I], [A_eq, 0]]`` structure.

    A replanning template re-solves one skeleton under many coefficient
    refreshes: the inequality block keeps its CSR index arrays and only its
    values change, and the equality block is the same object throughout.
    The layout keeps what assembly derives from the structure alone — the
    CSC ``indptr``/``indices``/``cols`` and the CSC slot of every inequality
    entry — so the next program of that skeleton only scatters its
    inequality values into a copy of ``data``.  Each slot receives the value
    full assembly would put there, so the program is bit-identical.
    """

    def __init__(
        self, a_ub: sp.csr_matrix, a_eq: object, order: np.ndarray, program: "_Program"
    ) -> None:
        self.ub_indices = a_ub.indices
        self.ub_indptr = a_ub.indptr
        self.ub_shape = a_ub.shape
        self.a_eq = a_eq
        slots = np.empty_like(order)
        slots[order] = np.arange(order.size)
        self.ub_slots = slots[: a_ub.nnz]
        self.indptr = program.indptr
        self.indices = program.indices
        self.cols = program.cols
        self.data = program.data

    def fits(self, a_ub: object, a_eq: object) -> bool:
        """Whether ``a_ub``/``a_eq`` have this structure and drop no entry."""
        return (
            a_eq is self.a_eq
            and sp.issparse(a_ub)
            and a_ub.format == "csr"  # type: ignore[union-attr]
            and a_ub.shape == self.ub_shape  # type: ignore[union-attr]
            and np.array_equal(a_ub.indptr, self.ub_indptr)  # type: ignore[union-attr]
            and np.array_equal(a_ub.indices, self.ub_indices)  # type: ignore[union-attr]
            and bool((np.abs(a_ub.data) >= _COEFF_DROP).all())  # type: ignore[union-attr]
        )


class _Program:
    """The bounded standard form ``min c.x  s.t.  A x = b, lo <= x <= hi``.

    ``A`` is the combined ``[[A_ub, I], [A_eq, 0]]`` system, held as four
    numpy arrays: CSC ``indptr``/``indices``/``data`` (column access drives
    every FTRAN step) plus ``cols``, the column id of every entry.  The two
    products the solve needs are single ``np.bincount`` calls over those
    arrays (:meth:`_matvec`, :meth:`_rmatvec`); no ``scipy.sparse`` object
    is built.  Slacks are ordinary bounded columns ``[0, inf)``.  Artificial
    columns are virtual — identity columns addressed past ``n_total`` — so
    cold and warm solves share one matrix.
    """

    def __init__(
        self, form: MatrixForm, max_iterations: int, layout: Optional[_Layout] = None
    ) -> None:
        n = form.num_variables
        if layout is not None and layout.fits(form.a_ub, form.a_eq):
            a_ub, a_eq = form.a_ub, form.a_eq
            self.indptr = layout.indptr
            self.indices = layout.indices
            self.cols = layout.cols
            self.data = layout.data.copy()
            self.data[layout.ub_slots] = a_ub.data  # type: ignore[union-attr]
        else:
            a_ub = _csr_block(form.a_ub, n)
            a_eq = _csr_block(form.a_eq, n)
            layout = self._assemble(a_ub, a_eq, n, form)
        #: The layout a later program of this skeleton can reuse (``None``
        #: when an entry was dropped or a block was not CSR).
        self.layout = layout
        m_ub = a_ub.shape[0]
        m_eq = a_eq.shape[0]
        #: The equality rows, for the crash basis's row-wise scan.
        self.a_eq = a_eq
        self.n = n
        self.m_ub = m_ub
        self.m = m_ub + m_eq
        self.n_total = n + m_ub
        self.b = np.concatenate([np.asarray(form.b_ub, dtype=float),
                                 np.asarray(form.b_eq, dtype=float)])
        self.c = np.concatenate([np.asarray(form.c, dtype=float), np.zeros(m_ub)])
        bounds = np.asarray(form.bounds, dtype=float)
        self.lo = np.concatenate([bounds[:, 0], np.zeros(m_ub)])
        self.hi = np.concatenate([bounds[:, 1], np.full(m_ub, np.inf)])
        self.max_iterations = max_iterations

        # Artificial columns (cold solves only): column n_total + k is
        # sign[k] * e_{row[k]}.
        self.art_rows: np.ndarray = np.empty(0, dtype=np.intp)
        self.art_signs: np.ndarray = np.empty(0, dtype=float)

        # Mutable solver state, set up by _cold_start / _warm_start.
        self.basis = np.empty(0, dtype=np.intp)
        self.vstatus = np.empty(0, dtype=np.int8)
        self.x = np.empty(0, dtype=float)
        self.b_inv = np.empty((0, 0), dtype=float)
        self.iterations = 0
        #: Product-form updates applied since the last full refactorisation —
        #: persists across re-solves of a kept-alive program, so drift cannot
        #: accumulate unboundedly over a long refresh sequence.
        self.updates_since = 0
        #: A verdict-only solve left the pivoted inverse in place; the next
        #: rebind refactorises first (see :meth:`_rebind`).
        self.refactor_due = False

    def _assemble(
        self, a_ub: sp.csr_matrix, a_eq: sp.csr_matrix, n: int, form: MatrixForm
    ) -> Optional[_Layout]:
        """Assemble ``[[A_ub, I], [A_eq, 0]]`` in CSC; return its reusable layout.

        A stable sort of the row-major structural entries by column keeps
        each column's entries in row order (what scipy's CSR -> CSC
        conversion produces), then one single-entry identity column per
        slack is appended.
        """
        m_ub = a_ub.shape[0]
        rows = np.repeat(
            np.arange(m_ub + a_eq.shape[0]),
            np.concatenate([np.diff(a_ub.indptr), np.diff(a_eq.indptr)]),
        )
        cols = np.concatenate([a_ub.indices, a_eq.indices]).astype(np.intp)
        order = np.argsort(cols, kind="stable")
        slacks = np.arange(m_ub)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols, minlength=n)), cols.size + slacks + 1]
        )
        self.indices = np.concatenate([rows[order], slacks])
        data = np.concatenate([a_ub.data, a_eq.data])
        self.data = np.concatenate([data[order], np.ones(m_ub)])
        self.cols = np.concatenate([cols[order], n + slacks])
        if a_ub is not form.a_ub or a_eq is not form.a_eq:
            return None  # a dense block, or entries dropped below _COEFF_DROP
        return _Layout(a_ub, a_eq, order, self)

    # ------------------------------------------------------------------ #
    # Products.  Each output entry is summed from 0.0 over the same      #
    # products in the same entry order as scipy's csc/csr matvec, so     #
    # the results are bit-identical to ``A @ v`` and ``A.T @ y``.        #
    # ------------------------------------------------------------------ #
    def _matvec(self, v: np.ndarray) -> np.ndarray:
        """``A v`` over the structural and slack columns."""
        return np.bincount(
            self.indices, weights=self.data * v[self.cols], minlength=self.m
        )

    def _rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` over the structural and slack columns."""
        return np.bincount(
            self.cols, weights=self.data * y[self.indices], minlength=self.n_total
        )

    # ------------------------------------------------------------------ #
    # Column access (structural/slack from CSC, artificials virtual)     #
    # ------------------------------------------------------------------ #
    def _column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        if j < self.n_total:
            start, end = self.indptr[j], self.indptr[j + 1]
            return self.indices[start:end], self.data[start:end]
        k = j - self.n_total
        return (
            np.asarray([self.art_rows[k]], dtype=np.intp),
            np.asarray([self.art_signs[k]], dtype=float),
        )

    def _ftran(self, j: int) -> np.ndarray:
        idx, val = self._column(j)
        if idx.size == 0:
            return np.zeros(self.m)
        return self.b_inv[:, idx] @ val

    def _row_prices(self, vector: np.ndarray) -> np.ndarray:
        """``A^T vector`` extended over the artificial columns."""
        if not self.art_rows.size:
            return self._rmatvec(vector)
        out = np.empty(self.n_total + self.art_rows.size)
        out[: self.n_total] = self._rmatvec(vector)
        out[self.n_total:] = self.art_signs * vector[self.art_rows]
        return out

    def _nonbasic_values(self) -> np.ndarray:
        """Full-length value vector with basic entries zeroed (for residuals)."""
        v = self.x[: self.n_total].copy()
        v[self.vstatus[: self.n_total] == _BASIC] = 0.0
        return v

    def _refactor(self) -> None:
        cols = np.zeros((self.m, self.m))
        structural = self.basis < self.n_total
        # Scatter the structural/slack basis columns straight from the CSC
        # arrays: column j's entries sit at indptr[j] + 0..count-1.  Adding
        # (not assigning) sums duplicate entries as a dense conversion would.
        slots = np.nonzero(structural)[0]
        starts = self.indptr[self.basis[slots]]
        counts = self.indptr[self.basis[slots] + 1] - starts
        entries = np.repeat(starts - np.cumsum(counts) + counts, counts)
        entries += np.arange(entries.size)
        np.add.at(
            cols, (self.indices[entries], np.repeat(slots, counts)), self.data[entries]
        )
        for k in np.nonzero(~structural)[0]:
            a = self.basis[k] - self.n_total
            cols[self.art_rows[a], k] = self.art_signs[a]
        try:
            self.b_inv = np.linalg.inv(cols)
        except np.linalg.LinAlgError as exc:
            raise _Numerics("singular basis") from exc
        self.updates_since = 0
        self.refactor_due = False
        residual = self.b - self._matvec(self._nonbasic_values())
        x_b = self.b_inv @ residual
        self.x[self.basis] = x_b

    def _update_inverse(self, r: int, w: np.ndarray) -> None:
        """Product-form update after pivoting column with FTRAN ``w`` into row ``r``."""
        pivot = w[r]
        self.b_inv[r, :] /= pivot
        scale = w.copy()
        scale[r] = 0.0
        self.b_inv -= scale[:, None] * self.b_inv[r, :][None, :]
        self.updates_since += 1

    def _rebind(self, form: MatrixForm) -> None:
        """Install new right-hand sides, keeping the current factorisation.

        Only valid when every matrix block, cost and bound of ``form`` is the
        very object this program was assembled from (see
        :class:`ProgramHandle`) — then the basis inverse stays exact and only
        the basic values need recomputing.  A refactorisation a verdict-only
        solve deferred runs here, before anything reads the inverse: it
        rebuilds the inverse from the same basis, and its basic values are
        the same expression the plain rebind evaluates.
        """
        self.b = np.concatenate(
            [np.asarray(form.b_ub, dtype=float), np.asarray(form.b_eq, dtype=float)]
        )
        self.iterations = 0
        if self.refactor_due or self.updates_since >= _REFACTOR_EVERY:
            self._refactor()
        else:
            self.x[self.basis] = self.b_inv @ (self.b - self._matvec(self._nonbasic_values()))

    # ------------------------------------------------------------------ #
    # Primal simplex (cold phases)                                       #
    # ------------------------------------------------------------------ #
    def _primal(self, costs: np.ndarray, allow_enter: np.ndarray) -> str:
        """Iterate to primal optimality.  Returns ``optimal``/``unbounded``/``limit``."""
        m = self.m
        bland = False
        stall = 0
        stall_limit = 3 * m + 100
        since_refactor = 0
        iters = 0
        lo, hi = self.lo_ext, self.hi_ext
        while iters < self.max_iterations:
            c_b = costs[self.basis]
            y = self.b_inv.T @ c_b
            d = costs - self._row_prices(y)
            status = self.vstatus
            score = np.zeros_like(d)
            at_lower = (status == _AT_LOWER) & allow_enter
            at_upper = (status == _AT_UPPER) & allow_enter
            free = (status == _FREE) & allow_enter
            score[at_lower] = -d[at_lower]
            score[at_upper] = d[at_upper]
            score[free] = np.abs(d[free])
            eligible = np.nonzero(score > _EPS)[0]
            if eligible.size == 0:
                self.iterations += iters
                return "optimal"
            if bland:
                enter = int(eligible[0])
            else:
                enter = int(eligible[np.argmax(score[eligible])])
            sigma = 1.0
            if status[enter] == _AT_UPPER or (status[enter] == _FREE and d[enter] > 0):
                sigma = -1.0

            w = self._ftran(enter)
            delta = sigma * w
            x_b = self.x[self.basis]
            ratios = np.full(m, np.inf)
            up = delta > _EPS
            if up.any():
                room = np.maximum(x_b[up] - lo[self.basis[up]], 0.0)
                ratios[up] = room / delta[up]
            down = delta < -_EPS
            if down.any():
                room = np.maximum(hi[self.basis[down]] - x_b[down], 0.0)
                ratios[down] = room / (-delta[down])
            t_flip = hi[enter] - lo[enter]
            min_ratio = ratios.min() if m else np.inf
            if not np.isfinite(min_ratio) and not np.isfinite(t_flip):
                self.iterations += iters
                return "unbounded"

            iters += 1
            if t_flip < min_ratio:
                # Bound flip: the entering variable crosses its whole range
                # before any basic variable blocks — no basis change.
                self.x[self.basis] = x_b - t_flip * delta
                self.x[enter] = hi[enter] if sigma > 0 else lo[enter]
                self.vstatus[enter] = _AT_UPPER if sigma > 0 else _AT_LOWER
                continue

            tie = np.nonzero(ratios <= min_ratio + _EPS)[0]
            leave = int(tie[np.argmin(self.basis[tie])])
            if abs(w[leave]) < _PIVOT_TOL:
                # Unstable pivot: refactorise and retry once, then force
                # Bland's rule so the stall cannot repeat forever.
                self._refactor()
                since_refactor = 0
                if bland:
                    self.iterations += iters
                    return "limit"
                bland = True
                continue

            t = min_ratio
            leaving = int(self.basis[leave])
            self.x[self.basis] = x_b - t * delta
            self.x[enter] = self.x[enter] + sigma * t
            bound = lo[leaving] if delta[leave] > 0 else hi[leaving]
            self.x[leaving] = bound
            self.vstatus[leaving] = _AT_LOWER if delta[leave] > 0 else _AT_UPPER
            self._update_inverse(leave, w)
            self.basis[leave] = enter
            self.vstatus[enter] = _BASIC

            if t <= _EPS:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0
        self.iterations += iters
        return "limit"

    # ------------------------------------------------------------------ #
    # Cold start: slack basis + artificials, phase 1 / phase 2           #
    # ------------------------------------------------------------------ #
    def _cold_start(self) -> Optional[LPStatus]:
        n_total, m = self.n_total, self.m
        self.vstatus, self.x = _place_nonbasic(
            self.lo, self.hi, np.full(n_total, _AT_LOWER, dtype=np.int8)
        )

        # Residual once every column sits at its initial bound: inequality
        # rows whose residual is a legal slack value take the slack into the
        # basis; everything else gets an artificial.
        residual = self.b - self._matvec(self._nonbasic_values())
        basis: List[int] = []
        art_rows: List[int] = []
        art_signs: List[float] = []
        art_values: List[float] = []
        for i in range(m):
            r = residual[i]
            if i < self.m_ub and r >= 0.0:
                basis.append(self.n + i)
                self.vstatus[self.n + i] = _BASIC
                self.x[self.n + i] = r
            else:
                sign = 1.0 if r >= 0 else -1.0
                basis.append(n_total + len(art_rows))
                art_rows.append(i)
                art_signs.append(sign)
                art_values.append(abs(r))
        self.basis = np.asarray(basis, dtype=np.intp)
        self.art_rows = np.asarray(art_rows, dtype=np.intp)
        self.art_signs = np.asarray(art_signs, dtype=float)
        n_art = self.art_rows.size

        self.vstatus = np.concatenate(
            [self.vstatus, np.full(n_art, _BASIC, dtype=np.int8)]
        )
        self.x = np.concatenate([self.x, np.asarray(art_values, dtype=float)])
        self.lo_ext = np.concatenate([self.lo, np.zeros(n_art)])
        self.hi_ext = np.concatenate([self.hi, np.full(n_art, np.inf)])
        self._refactor()

        if n_art:
            phase1_costs = np.zeros(n_total + n_art)
            phase1_costs[n_total:] = 1.0
            allow = np.ones(n_total + n_art, dtype=bool)
            allow[n_total:] = False  # artificials never re-enter
            outcome = self._primal(phase1_costs, allow)
            if outcome == "limit":
                return LPStatus.ERROR
            infeasibility = float(self.x[n_total:].sum())
            if infeasibility > _FEAS_TOL:
                return LPStatus.INFEASIBLE
            self._drive_out_artificials()
            # Pin every artificial (basic ones sit at zero on a redundant
            # row; they may leave the basis but never move off zero).
            self.hi_ext[n_total:] = 0.0
            self.x[n_total:] = 0.0
        else:
            self.lo_ext = self.lo
            self.hi_ext = self.hi
        return None

    def _drive_out_artificials(self) -> None:
        for r in range(self.m):
            if self.basis[r] < self.n_total:
                continue
            rho = self.b_inv[r, :]
            alpha = self._rmatvec(rho)
            nonbasic = self.vstatus[: self.n_total] != _BASIC
            candidates = np.nonzero(nonbasic & (np.abs(alpha) > _FEAS_TOL))[0]
            if candidates.size == 0:
                continue  # redundant row: the artificial stays basic at zero
            enter = int(candidates[0])
            w = self._ftran(enter)
            if abs(w[r]) < _PIVOT_TOL:
                continue
            leaving = int(self.basis[r])
            self._update_inverse(r, w)
            self.basis[r] = enter
            self.vstatus[enter] = _BASIC
            self.vstatus[leaving] = _AT_LOWER
            # Degenerate exchange: the entering column joins the basis at its
            # current (bound) value, the artificial leaves at zero.
            self.x[leaving] = 0.0
            self.iterations += 1

    def _crash_start(self) -> bool:
        """Deterministic slack/crash basis for zero-objective programs.

        With an all-zero objective every basis is dual feasible, so a
        feasibility program never needs phase 1: take the slack of every
        inequality row and, for each equality row, the smallest-index
        structural column with a usable coefficient (unused by other rows),
        then run the dual simplex.  Returns ``False`` when no full crash
        basis exists — the caller falls back to the classic two-phase path.
        """
        n_total, m = self.n_total, self.m
        vstatus, x = _place_nonbasic(
            self.lo, self.hi, np.full(n_total, _AT_LOWER, dtype=np.int8)
        )
        basis = np.empty(m, dtype=np.intp)
        used = np.zeros(n_total, dtype=bool)
        for i in range(self.m_ub):
            basis[i] = self.n + i
            used[self.n + i] = True
        if m > self.m_ub:
            eq_rows = self.a_eq  # scanned smallest column first: determinism
            if not eq_rows.has_sorted_indices:
                eq_rows = eq_rows.sorted_indices()
            for r in range(self.m_ub, m):
                start, end = eq_rows.indptr[r - self.m_ub], eq_rows.indptr[r - self.m_ub + 1]
                chosen = -1
                for j, a in zip(eq_rows.indices[start:end], eq_rows.data[start:end]):
                    if not used[j] and abs(a) >= _FEAS_TOL:
                        chosen = int(j)
                        break
                if chosen < 0:
                    return False
                basis[r] = chosen
                used[chosen] = True
        self.basis = basis
        self.vstatus = vstatus
        self.vstatus[basis] = _BASIC
        self.x = x
        self.lo_ext = self.lo
        self.hi_ext = self.hi
        self._refactor()
        return True

    # ------------------------------------------------------------------ #
    # Warm start: dual simplex from a previous basis                     #
    # ------------------------------------------------------------------ #
    def _warm_start(self, state: BasisState) -> bool:
        """Install ``state`` for this (possibly refreshed) program.

        Returns ``False`` when the state cannot seed a dual solve (shape
        mismatch, singular refactorisation, dual infeasibility) — the caller
        then falls back to the cold path.
        """
        basis = np.asarray(state.basis, dtype=np.intp)
        vstatus = np.asarray(state.vstatus, dtype=np.int8)
        if basis.shape != (self.m,) or vstatus.shape != (self.n_total,):
            return False
        if basis.size and (basis.min() < 0 or basis.max() >= self.n_total):
            return False
        self.basis = basis.copy()
        self.vstatus, self.x = _place_nonbasic(self.lo, self.hi, vstatus)
        self.lo_ext = self.lo
        self.hi_ext = self.hi
        try:
            self._refactor()
        except _Numerics:
            return False
        y = self.b_inv.T @ self.c[self.basis]
        d = self.c - self._row_prices(y)
        lower_ok = (self.vstatus != _AT_LOWER) | (d >= -_FEAS_TOL)
        upper_ok = (self.vstatus != _AT_UPPER) | (d <= _FEAS_TOL)
        free_ok = (self.vstatus != _FREE) | (np.abs(d) <= _FEAS_TOL)
        return bool((lower_ok & upper_ok & free_ok).all())

    def _dual(self) -> str:
        """Dual simplex to primal feasibility.  ``optimal``/``infeasible``/``limit``."""
        m = self.m
        iters = 0
        since_refactor = 0
        cap = min(self.max_iterations, 3 * m + 200)
        basis = self.basis
        row_prices = self._row_prices if self.art_rows.size else self._rmatvec
        # Bounds and values of the basic columns, kept in step with the
        # basis instead of gathered again on every pivot.  ``x_b`` is the
        # authoritative copy of the basic values inside the loop; ``self.x``
        # gets them back on exit and before a refactorisation reads it.
        x_b = self.x[basis]
        lo_b = self.lo[basis]
        hi_b = self.hi[basis]
        # The System (2) feasibility programs have an all-zero objective:
        # every reduced cost is exactly zero, so the dual ratio test
        # degenerates to "first eligible column" — skip the pricing solve.
        zero_costs = not self.c.any()
        if zero_costs:
            # -1 at lower, +1 at upper, 0 basic or free: a column at lower
            # is eligible when its pivot-row entry is below -_EPS, one at
            # upper when it is above _EPS, so ``sign * a2 > _EPS`` is the
            # whole eligibility test and ``sign * a2`` its |pivot|.
            status = self.vstatus
            sign = np.zeros(status.size)
            sign[status == _AT_LOWER] = -1.0
            sign[status == _AT_UPPER] = 1.0
            free = np.flatnonzero(status == _FREE)
        while iters < cap:
            below = lo_b - x_b
            above = x_b - hi_b
            violation = np.maximum(below, above)
            r = int(violation.argmax())
            if violation[r] <= _FEAS_TOL:
                self.x[basis] = x_b
                self.iterations += iters
                return "optimal"
            is_below = below[r] >= above[r]

            rho = self.b_inv[r, :]
            alpha = row_prices(rho)
            if zero_costs:
                # Any entering column keeps dual feasibility when c == 0, so
                # the choice is free: take the largest |pivot| (first index on
                # ties).  First-eligible would be Bland's rule, which stalls
                # for ~m near-degenerate pivots on these programs.
                score = sign * alpha
                if not is_below:
                    np.negative(score, out=score)
                if free.size:
                    score[free] = np.abs(alpha[free])
                enter = int(score.argmax())
                if not score[enter] > _EPS:
                    self.x[basis] = x_b
                    self.iterations += iters
                    return "infeasible"
            else:
                a2 = alpha if is_below else -alpha
                status = self.vstatus
                y = self.b_inv.T @ self.c[basis]
                d = self.c - row_prices(y)
                ratios = np.full(self.n_total, np.inf)
                sel = (status == _AT_LOWER) & (a2 < -_EPS)
                ratios[sel] = np.maximum(d[sel], 0.0) / (-a2[sel])
                sel = (status == _AT_UPPER) & (a2 > _EPS)
                ratios[sel] = np.maximum(-d[sel], 0.0) / a2[sel]
                sel = (status == _FREE) & (np.abs(a2) > _EPS)
                ratios[sel] = np.abs(d[sel]) / np.abs(a2[sel])
                enter = int(ratios.argmin())
                if not np.isfinite(ratios[enter]):
                    self.x[basis] = x_b
                    self.iterations += iters
                    return "infeasible"

            target = lo_b[r] if is_below else hi_b[r]
            t = (x_b[r] - target) / alpha[enter]
            w = self._ftran(enter)
            if abs(w[r]) < _PIVOT_TOL:
                raise _Numerics("dual pivot below tolerance")
            leaving = int(basis[r])
            x_b = x_b - t * w
            self.x[enter] = self.x[enter] + t
            self.x[leaving] = target
            self.vstatus[leaving] = _AT_LOWER if is_below else _AT_UPPER
            self._update_inverse(r, w)
            if zero_costs:
                sign[leaving] = -1.0 if is_below else 1.0
                sign[enter] = 0.0
                if self.vstatus[enter] == _FREE:
                    free = free[free != enter]
            basis[r] = enter
            self.vstatus[enter] = _BASIC
            x_b[r] = self.x[enter]
            lo_b[r] = self.lo[enter]
            hi_b[r] = self.hi[enter]

            iters += 1
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self.x[basis] = x_b
                self._refactor()
                since_refactor = 0
                x_b = self.x[basis]
        self.x[basis] = x_b
        self.iterations += iters
        return "limit"

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Optional[BasisState]:
        """The reusable basis, or ``None`` when an artificial is still basic."""
        if (self.basis >= self.n_total).any():
            return None
        return BasisState(
            basis=self.basis.copy(), vstatus=self.vstatus[: self.n_total].copy()
        )


def _solve_boxed(form: MatrixForm) -> LPSolution:
    """The constraint-free case: minimise ``c.x`` over the box alone."""
    c = np.asarray(form.c, dtype=float)
    bounds = np.asarray(form.bounds, dtype=float)
    x = np.zeros(c.shape[0])
    for j, cost in enumerate(c):
        lo, hi = bounds[j]
        if cost > _EPS:
            if not np.isfinite(lo):
                return LPSolution(status=LPStatus.UNBOUNDED, backend=_BACKEND)
            x[j] = lo
        elif cost < -_EPS:
            if not np.isfinite(hi):
                return LPSolution(status=LPStatus.UNBOUNDED, backend=_BACKEND)
            x[j] = hi
        elif np.isfinite(lo):
            x[j] = lo
        elif np.isfinite(hi):
            x[j] = hi
    if (bounds[:, 0] > bounds[:, 1] + _EPS).any():
        return LPSolution(status=LPStatus.INFEASIBLE, backend=_BACKEND)
    minimised = float(c @ x)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective_value=form.restore_objective(minimised),
        values={j: float(v) for j, v in enumerate(x)},
        backend=_BACKEND,
        iterations=0,
    )


def _optimum(program: _Program, form: MatrixForm, verdict_only: bool) -> LPSolution:
    """The optimal solution after the last pivot, or only its verdict.

    A full answer refactorises first when pivots have updated the inverse
    since the last refactorisation, so ``x`` carries no product-form drift.
    A verdict-only answer reads nothing, so it builds no value map and
    defers that refactorisation to the program's next rebind (it is never
    skipped: the refreshed inverse seeds that re-solve's pivots).
    """
    if verdict_only:
        if program.updates_since:
            program.refactor_due = True
        return LPSolution(
            status=LPStatus.OPTIMAL, backend=_BACKEND, iterations=program.iterations
        )
    if program.updates_since:
        program._refactor()
    return _extract(program, form)


def _extract(program: _Program, form: MatrixForm) -> LPSolution:
    x = program.x[: program.n]
    minimised = float(np.asarray(form.c, dtype=float) @ x)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective_value=form.restore_objective(minimised),
        values={j: float(v) for j, v in enumerate(x)},
        backend=_BACKEND,
        iterations=program.iterations,
    )


def _cold_solve(
    program: _Program, form: MatrixForm, recorder: Recorder, verdict_only: bool
) -> Tuple[LPSolution, Optional[BasisState]]:
    if not program.c.any():
        # Zero-objective (pure feasibility) program: any basis is dual
        # feasible, so crash a deterministic slack basis and dual-solve —
        # no artificials, no phase 1.  Anything unusable about the crash
        # (no candidate columns, singular basis, dual stall) falls through
        # to the classic two-phase path below.
        started = wall_clock() if recorder.enabled else 0.0
        outcome = "limit"
        try:
            if program._crash_start():
                outcome = program._dual()
        except _Numerics:
            outcome = "limit"
        if recorder.enabled:
            recorder.observe("lp.time.revised.crash", wall_clock() - started)
        if outcome == "infeasible":
            return (
                LPSolution(
                    status=LPStatus.INFEASIBLE,
                    backend=_BACKEND,
                    iterations=program.iterations,
                ),
                program.snapshot(),
            )
        if outcome == "optimal":
            try:
                # With no pivot since the crash refactorisation, another
                # one would rebuild the same inverse and values.
                return _optimum(program, form, verdict_only), program.snapshot()
            except _Numerics:
                pass
        # "limit"/numerics: _cold_start rebuilds every piece of state, so the
        # two-phase fallback below starts pristine.
        program.iterations = 0

    started = wall_clock() if recorder.enabled else 0.0
    status = program._cold_start()
    if status is LPStatus.ERROR:
        return (
            LPSolution(
                status=LPStatus.ERROR,
                backend=_BACKEND,
                iterations=program.iterations,
                message="phase-1 iteration limit",
            ),
            None,
        )
    if recorder.enabled:
        recorder.observe("lp.time.revised.phase1", wall_clock() - started)
    if status is LPStatus.INFEASIBLE:
        return (
            LPSolution(
                status=LPStatus.INFEASIBLE,
                backend=_BACKEND,
                iterations=program.iterations,
            ),
            program.snapshot(),
        )

    started = wall_clock() if recorder.enabled else 0.0
    costs = np.concatenate([program.c, np.zeros(program.art_rows.size)])
    allow = np.ones(costs.shape[0], dtype=bool)
    allow[program.n_total:] = False
    outcome = program._primal(costs, allow)
    if recorder.enabled:
        recorder.observe("lp.time.revised.phase2", wall_clock() - started)
    if outcome == "limit":
        return (
            LPSolution(
                status=LPStatus.ERROR,
                backend=_BACKEND,
                iterations=program.iterations,
                message="phase-2 iteration limit",
            ),
            None,
        )
    if outcome == "unbounded":
        return (
            LPSolution(
                status=LPStatus.UNBOUNDED,
                backend=_BACKEND,
                iterations=program.iterations,
            ),
            None,
        )
    # Flush accumulated update dirt before reading x.  Verdict-only solves
    # run it too: a singular basis here turns the verdict into an error.
    program._refactor()
    return _optimum(program, form, verdict_only), program.snapshot()


def solve_matrix_form_revised(
    form: MatrixForm,
    max_iterations: int = 20000,
    *,
    warm_basis: Optional[BasisState] = None,
    handle: Optional[ProgramHandle] = None,
    recorder: Optional[Recorder] = None,
    verdict_only: bool = False,
) -> RevisedSolve:
    """Solve a lowered :class:`MatrixForm`, optionally warm-starting.

    With ``warm_basis`` (the :class:`RevisedSolve.basis` of a previous solve
    of the same skeleton) the solver refactorises that basis against the
    current coefficients and runs dual-simplex iterations; when anything
    about the warm start is unusable it silently falls back to the cold
    two-phase solve, so the verdict never depends on the fast path.

    With ``handle`` the assembled program itself is kept alive between calls:
    when the presented form shares every matrix block with the cached program
    (rhs-only refresh, see :class:`ProgramHandle`) the re-solve skips assembly
    *and* refactorisation; otherwise the handle is refilled from this solve.
    A handle also keeps the assembled CSC layout, so the next program of the
    same skeleton (new coefficient values, same structure) skips assembly's
    sort.

    With ``verdict_only`` an optimal solve reports its status and pivot
    count only: no objective, no values.  The solver state it leaves behind
    (basis, statuses, and the basis inverse every later re-solve starts
    from) is the one a full solve leaves.
    """
    rec = recorder if recorder is not None else get_recorder()
    if handle is not None and handle.matches(form):
        # The kept-alive program was assembled from these very blocks, costs
        # and bounds, so they already passed the entry checks below.
        program = handle.program
        assert program is not None  # matches() guarantees it
        started = wall_clock() if rec.enabled else 0.0
        outcome = "limit"
        try:
            program._rebind(form)
            outcome = program._dual()
        except _Numerics:
            outcome = "limit"
        if outcome != "limit":
            if rec.enabled:
                rec.count("lp.solves")
                rec.count("lp.warm_start_hits")
                rec.observe("lp.iterations", float(program.iterations))
                rec.observe("lp.time.revised.dual", wall_clock() - started)
            if outcome == "infeasible":
                return RevisedSolve(
                    LPSolution(
                        status=LPStatus.INFEASIBLE,
                        backend=_BACKEND,
                        iterations=program.iterations,
                    ),
                    program.snapshot(),
                    warm_used=True,
                )
            return RevisedSolve(
                _optimum(program, form, verdict_only), program.snapshot(), warm_used=True
            )
        # Poisoned kept-alive state: drop it and rebuild from scratch below.
        handle.program = None
        handle.blocks = None

    if form.num_variables == 0:
        return RevisedSolve(solve_constant_form(form, _BACKEND), None)
    if (np.asarray(form.bounds)[:, 0] > np.asarray(form.bounds)[:, 1] + _EPS).any():
        return RevisedSolve(
            LPSolution(status=LPStatus.INFEASIBLE, backend=_BACKEND), None
        )

    layout = handle.layout if handle is not None else None
    program = _Program(form, max_iterations, layout)
    if handle is not None:
        handle.layout = program.layout
    if program.m == 0:
        return RevisedSolve(_solve_boxed(form), None)

    warm_used = False
    if warm_basis is not None:
        started = wall_clock() if rec.enabled else 0.0
        try:
            if program._warm_start(warm_basis):
                outcome = program._dual()
                if outcome != "limit":
                    warm_used = True
                    if rec.enabled:
                        rec.count("lp.solves")
                        rec.count("lp.warm_start_hits")
                        rec.observe("lp.iterations", float(program.iterations))
                        rec.observe("lp.time.revised.dual", wall_clock() - started)
                    if outcome == "infeasible":
                        if handle is not None:
                            handle.stash(program, form)
                        return RevisedSolve(
                            LPSolution(
                                status=LPStatus.INFEASIBLE,
                                backend=_BACKEND,
                                iterations=program.iterations,
                            ),
                            program.snapshot(),
                            warm_used=True,
                        )
                    solution = _optimum(program, form, verdict_only)
                    if handle is not None:
                        handle.stash(program, form)
                    return RevisedSolve(solution, program.snapshot(), warm_used=True)
        except _Numerics:
            pass
        # Fall through: rebuild untouched state for the cold solve.
        program = _Program(form, max_iterations, layout)

    try:
        solution, basis = _cold_solve(program, form, rec, verdict_only)
    except _Numerics as exc:
        solution, basis = (
            LPSolution(status=LPStatus.ERROR, backend=_BACKEND, message=str(exc)),
            None,
        )
    if rec.enabled:
        rec.count("lp.solves")
        rec.count("lp.cold_solves")
        rec.observe("lp.iterations", float(solution.iterations or 0))
    if handle is not None:
        if basis is not None:
            handle.stash(program, form)
        else:
            handle.program = None
            handle.blocks = None
    return RevisedSolve(solution, basis, warm_used=warm_used)


def solve_matrix_form(form: MatrixForm, max_iterations: int = 20000) -> LPSolution:
    """Cold revised-simplex solve of ``form`` (the in-house fast path)."""
    return solve_matrix_form_revised(form, max_iterations).solution
