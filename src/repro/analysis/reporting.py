"""Paper-versus-measured reporting helpers.

Every bench compares a quantity the paper reports (an overhead, a ratio, a
winner) with the value measured by the reproduction.  This module gives those
comparisons a uniform shape so that EXPERIMENTS.md and the bench output tell
the same story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .regression import CellDiff, CrossRunDiff
from .tables import format_table

__all__ = [
    "ComparisonRecord",
    "ExperimentReport",
    "render_cell_diff",
    "render_cross_run_diff",
]


@dataclass(frozen=True)
class ComparisonRecord:
    """One paper-vs-measured comparison.

    Attributes
    ----------
    quantity:
        What is being compared (e.g. ``"sequence-partition overhead [s]"``).
    paper_value:
        The value (or textual claim) reported by the paper.
    measured_value:
        The value measured by the reproduction.
    tolerance_note:
        Free-form note on how close the two are expected to be.
    """

    quantity: str
    paper_value: float
    measured_value: float
    tolerance_note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """``measured / paper`` when the paper value is non-zero."""
        if self.paper_value == 0:
            return None
        return self.measured_value / self.paper_value


@dataclass
class ExperimentReport:
    """A named experiment with its paper-vs-measured comparisons."""

    experiment_id: str
    description: str
    records: List[ComparisonRecord] = field(default_factory=list)

    def add(self, quantity: str, paper_value: float, measured_value: float, note: str = "") -> None:
        """Append one comparison to the report."""
        self.records.append(
            ComparisonRecord(
                quantity=quantity,
                paper_value=paper_value,
                measured_value=measured_value,
                tolerance_note=note,
            )
        )

    def render(self) -> str:
        """Render the report as an ASCII table (used in bench output)."""
        rows = []
        for record in self.records:
            ratio = record.ratio
            rows.append(
                (
                    record.quantity,
                    record.paper_value,
                    record.measured_value,
                    "n/a" if ratio is None else f"{ratio:.3f}",
                    record.tolerance_note,
                )
            )
        return format_table(
            ["quantity", "paper", "measured", "measured/paper", "note"],
            rows,
            title=f"[{self.experiment_id}] {self.description}",
        )


def render_cross_run_diff(diff: CrossRunDiff, *, tolerance: float = 1e-6) -> str:
    """Render a :class:`~repro.analysis.regression.CrossRunDiff` as a table.

    One row per (policy, metric) delta with its tolerance flag; the footer
    summarises the verdict (``clean`` / regression count).  This is the
    output of ``repro-sched store diff``.
    """
    rows = []
    for delta in diff.deltas:
        rel = delta.relative_delta
        rows.append(
            (
                delta.policy,
                delta.metric,
                "-" if delta.baseline is None else f"{delta.baseline:.6g}",
                "-" if delta.current is None else f"{delta.current:.6g}",
                "-" if delta.delta is None else f"{delta.delta:+.3g}",
                "-" if rel is None else f"{rel:+.3%}",
                delta.flag(tolerance),
            )
        )
    table = format_table(
        ["policy", "metric", diff.baseline_label, diff.current_label, "delta", "rel", "flag"],
        rows,
        title=f"Cross-run diff: {diff.baseline_label} -> {diff.current_label} "
        f"(tolerance {tolerance:g})",
    )
    regressions = diff.regressions(tolerance)
    if regressions:
        verdict = f"{len(regressions)} regression(s) beyond tolerance"
    elif diff.is_clean(tolerance):
        verdict = "clean: every metric within tolerance"
    else:
        verdict = "no regressions (improvements or coverage changes present)"
    return f"{table}\n{verdict}"


def render_cell_diff(diff: CellDiff, *, tolerance: float = 1e-6) -> str:
    """Render a :class:`~repro.analysis.regression.CellDiff` as a table.

    Localises cross-run changes to individual scenarios: one row per cell
    whose flag is not ``ok`` (regressed / improved / added / removed), with a
    one-line summary of how many joined cells were clean.  This is the output
    of ``repro-sched store diff --cells``.
    """
    interesting = diff.non_ok(tolerance)
    total = len(diff.deltas)
    ok = total - len(interesting)
    header = (
        f"Per-cell diff ({diff.metric}): {diff.baseline_label} -> "
        f"{diff.current_label} (tolerance {tolerance:g})"
    )
    if not interesting:
        return f"{header}\nclean: all {total} joined cells within tolerance"
    rows = []
    for delta in interesting:
        rel = delta.relative_delta
        rows.append(
            (
                delta.policy,
                delta.workload,
                delta.workload_key,
                "-" if delta.baseline is None else f"{delta.baseline:.6g}",
                "-" if delta.current is None else f"{delta.current:.6g}",
                "-" if rel is None else f"{rel:+.3%}",
                delta.flag(tolerance),
            )
        )
    table = format_table(
        ["policy", "workload", "workload key", diff.baseline_label,
         diff.current_label, "rel", "flag"],
        rows,
        title=header,
    )
    regressions = len(diff.regressions(tolerance))
    verdict = (
        f"{len(interesting)} cell(s) changed ({regressions} regressed), "
        f"{ok} of {total} clean"
    )
    return f"{table}\n{verdict}"
