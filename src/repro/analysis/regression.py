"""Regression analyses: least-squares fits and cross-run metric diffs.

Section 2 of the paper estimates the fixed overheads of the GriPPS divisibility
experiments by linear regression (1.1 s for sequence partitioning, 10.5 s for
motif partitioning) and argues that the correlation is "nearly perfectly
linear".  This module provides the corresponding analysis: slope, intercept,
and coefficient of determination.

It also hosts the *cross-run* regression analysis of the experiment store:
:func:`cross_run_diff` compares the per-policy headline metrics of two
campaign runs (today's sweep against last PR's) and flags each delta as
``ok`` / ``regressed`` / ``improved`` under a relative tolerance — the
computation behind ``repro-sched store diff``
(:func:`repro.analysis.reporting.render_cross_run_diff` renders it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import WorkloadError

__all__ = [
    "CellDelta",
    "CellDiff",
    "CrossRunDiff",
    "LinearFit",
    "MetricDelta",
    "cross_run_cell_diff",
    "cross_run_diff",
    "linear_regression",
]


@dataclass(frozen=True)
class LinearFit:
    """Result of an ordinary-least-squares fit ``y ≈ intercept + slope * x``.

    Attributes
    ----------
    slope, intercept:
        Fitted coefficients.
    r_squared:
        Coefficient of determination.
    num_points:
        Number of observations used.
    """

    slope: float
    intercept: float
    r_squared: float
    num_points: int

    def predict(self, x: float) -> float:
        """Evaluate the fitted line at ``x``."""
        return self.intercept + self.slope * x

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"y = {self.intercept:.4g} + {self.slope:.4g} x  "
            f"(R^2 = {self.r_squared:.5f}, n = {self.num_points})"
        )


def linear_regression(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit of ``y`` against ``x``.

    Raises
    ------
    WorkloadError
        If fewer than two points are supplied or all ``x`` values coincide.
    """
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    if x_array.shape != y_array.shape:
        raise WorkloadError(
            f"x and y must have the same shape, got {x_array.shape} and {y_array.shape}"
        )
    if x_array.ndim != 1 or x_array.size < 2:
        raise WorkloadError("linear regression needs at least two one-dimensional observations")
    if np.allclose(x_array, x_array[0]):
        raise WorkloadError("cannot regress against a constant abscissa")

    n = x_array.size
    x_mean = x_array.mean()
    y_mean = y_array.mean()
    sxx = float(np.sum((x_array - x_mean) ** 2))
    sxy = float(np.sum((x_array - x_mean) * (y_array - y_mean)))
    syy = float(np.sum((y_array - y_mean) ** 2))

    slope = sxy / sxx
    intercept = y_mean - slope * x_mean

    residuals = y_array - (intercept + slope * x_array)
    sse = float(np.sum(residuals**2))
    r_squared = 1.0 if syy == 0.0 else 1.0 - sse / syy

    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared, num_points=n)


# --------------------------------------------------------------------------- #
# Cross-run regression diffs                                                   #
# --------------------------------------------------------------------------- #

#: Metrics compared for exact equality rather than a relative tolerance
#: (a coverage change is a "changed", never a "regressed").
_COUNT_METRICS = frozenset({"records"})


@dataclass(frozen=True)
class MetricDelta:
    """One (policy, metric) comparison between two campaign runs.

    All headline metrics of the experiment store are *lower-is-better*
    (geo-mean/max normalised degradation, mean preemptions) except the
    coverage counts in :data:`_COUNT_METRICS`, which are compared for
    equality.
    """

    policy: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        """``current - baseline`` (``None`` when either side is missing)."""
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def relative_delta(self) -> Optional[float]:
        """``(current - baseline) / |baseline|``; ``None`` when undefined."""
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)

    def flag(self, tolerance: float = 1e-6) -> str:
        """Classify the delta: ``ok``/``regressed``/``improved``/``changed``/
        ``added``/``removed``."""
        if self.baseline is None:
            return "added"
        if self.current is None:
            return "removed"
        if self.metric in _COUNT_METRICS:
            return "ok" if self.current == self.baseline else "changed"
        scale = max(abs(self.baseline), abs(self.current), 1e-300)
        if abs(self.current - self.baseline) <= tolerance * scale:
            return "ok"
        return "regressed" if self.current > self.baseline else "improved"


@dataclass
class CrossRunDiff:
    """Per-policy metric deltas between a baseline and a current run.

    Deltas are ordered by (policy, metric), so the diff — and anything
    rendered from it — is deterministic for given inputs.
    """

    baseline_label: str
    current_label: str
    deltas: List[MetricDelta]

    def regressions(self, tolerance: float = 1e-6) -> List[MetricDelta]:
        """Deltas flagged ``regressed`` under ``tolerance``."""
        return [delta for delta in self.deltas if delta.flag(tolerance) == "regressed"]

    def is_clean(self, tolerance: float = 1e-6) -> bool:
        """True when every delta is ``ok`` (no regressions, improvements or
        coverage changes — byte-level reproducibility)."""
        return all(delta.flag(tolerance) == "ok" for delta in self.deltas)


# --------------------------------------------------------------------------- #
# Per-cell diffs                                                                #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CellDelta:
    """One per-cell comparison: a (workload, policy) measurement in two runs.

    Where :class:`MetricDelta` compares per-policy *aggregates*, a cell delta
    localises a change to one scenario: cells are joined on
    ``(workload_key, policy)`` — the same identity the store digests — so
    label changes between sweeps do not break the join.  The compared metric
    is lower-is-better (``max_weighted_flow`` by default).
    """

    workload: str
    workload_key: str
    policy: str
    baseline: Optional[float]
    current: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        """``current - baseline`` (``None`` when either side is missing)."""
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def relative_delta(self) -> Optional[float]:
        """``(current - baseline) / |baseline|``; ``None`` when undefined."""
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)

    def flag(self, tolerance: float = 1e-6) -> str:
        """Classify: ``ok``/``regressed``/``improved``/``added``/``removed``."""
        if self.baseline is None:
            return "added"
        if self.current is None:
            return "removed"
        scale = max(abs(self.baseline), abs(self.current), 1e-300)
        if abs(self.current - self.baseline) <= tolerance * scale:
            return "ok"
        return "regressed" if self.current > self.baseline else "improved"


@dataclass
class CellDiff:
    """Per-cell deltas between two runs, ordered by (policy, workload key)."""

    baseline_label: str
    current_label: str
    metric: str
    deltas: List[CellDelta]

    def regressions(self, tolerance: float = 1e-6) -> List[CellDelta]:
        """Cells flagged ``regressed`` under ``tolerance``."""
        return [delta for delta in self.deltas if delta.flag(tolerance) == "regressed"]

    def non_ok(self, tolerance: float = 1e-6) -> List[CellDelta]:
        """Cells whose flag is anything but ``ok``."""
        return [delta for delta in self.deltas if delta.flag(tolerance) != "ok"]

    def is_clean(self, tolerance: float = 1e-6) -> bool:
        """True when every joined cell is within tolerance and none is missing."""
        return not self.non_ok(tolerance)


def cross_run_cell_diff(
    baseline_cells: Sequence,
    current_cells: Sequence,
    *,
    metric: str = "max_weighted_flow",
    baseline_label: str = "baseline",
    current_label: str = "current",
) -> CellDiff:
    """Join two runs' cells on (workload key, policy) and diff one metric.

    ``baseline_cells``/``current_cells`` are record-like objects exposing
    ``workload_key``, ``policy``, ``workload`` and the ``metric`` attribute —
    :class:`repro.store.StoredRecord` rows in practice
    (:func:`repro.store.diff_run_cells` is the store-level entry point).
    Cells present on only one side yield ``added``/``removed`` deltas, which
    is how a coverage change (new scenario, new policy variant) shows up.
    """

    def index(cells) -> Dict[Tuple[str, str], object]:
        table: Dict[Tuple[str, str], object] = {}
        for cell in cells:
            table[(cell.policy, cell.workload_key)] = cell
        return table

    base_table = index(baseline_cells)
    curr_table = index(current_cells)
    deltas: List[CellDelta] = []
    for key in sorted(set(base_table) | set(curr_table)):
        policy, workload_key = key
        base = base_table.get(key)
        curr = curr_table.get(key)
        label_source = curr if curr is not None else base
        deltas.append(
            CellDelta(
                workload=getattr(label_source, "workload", workload_key),
                workload_key=workload_key,
                policy=policy,
                baseline=None if base is None else float(getattr(base, metric)),
                current=None if curr is None else float(getattr(curr, metric)),
            )
        )
    return CellDiff(
        baseline_label=baseline_label,
        current_label=current_label,
        metric=metric,
        deltas=deltas,
    )


def cross_run_diff(
    baseline: Mapping[str, Mapping[str, float]],
    current: Mapping[str, Mapping[str, float]],
    *,
    baseline_label: str = "baseline",
    current_label: str = "current",
) -> CrossRunDiff:
    """Diff two ``policy -> metric -> value`` mappings.

    The mappings are what :meth:`repro.store.ExperimentStore.headline_metrics`
    returns for a finished run; policies or metrics present on only one side
    yield ``added``/``removed`` deltas instead of being dropped.
    """
    if not baseline and not current:
        raise WorkloadError("cross_run_diff needs at least one non-empty run")
    deltas: List[MetricDelta] = []
    for policy in sorted(set(baseline) | set(current)):
        base_metrics = baseline.get(policy, {})
        curr_metrics = current.get(policy, {})
        for metric in sorted(set(base_metrics) | set(curr_metrics)):
            deltas.append(
                MetricDelta(
                    policy=policy,
                    metric=metric,
                    baseline=base_metrics.get(metric),
                    current=curr_metrics.get(metric),
                )
            )
    return CrossRunDiff(
        baseline_label=baseline_label, current_label=current_label, deltas=deltas
    )
