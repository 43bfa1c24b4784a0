"""Per-job fairness analysis of schedules.

The paper motivates the max-weighted-flow / max-stretch objective as a
*fairness* objective: total-flow minimisation starves long jobs, plain
max-flow favours them.  This module quantifies that story for any schedule:

* the per-job stretch / weighted-flow distribution,
* Jain's fairness index over the stretches,
* the starvation ratio (worst stretch over median stretch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.schedule import Schedule
from ..exceptions import WorkloadError

__all__ = ["FairnessReport", "fairness_report", "jain_index"]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` (1 = perfectly fair)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise WorkloadError("Jain's index needs at least one value")
    if (array < 0).any():
        raise WorkloadError("Jain's index is defined for non-negative values")
    denominator = array.size * float(np.sum(array**2))
    if denominator == 0:
        return 1.0
    return float(np.sum(array)) ** 2 / denominator


@dataclass(frozen=True)
class FairnessReport:
    """Per-job fairness metrics of one schedule.

    Attributes
    ----------
    stretches:
        Per-job stretch, in job order.
    weighted_flows:
        Per-job weighted flow, in job order.
    max_stretch, mean_stretch, median_stretch:
        Aggregates of the stretch distribution.
    jain:
        Jain's fairness index over the stretches.
    starvation_ratio:
        ``max stretch / median stretch`` — how much worse the unluckiest job
        fares compared to the typical one.
    """

    stretches: List[float]
    weighted_flows: List[float]
    max_stretch: float
    mean_stretch: float
    median_stretch: float
    jain: float
    starvation_ratio: float

    def as_rows(self) -> List[tuple]:
        """Rows (job index, stretch, weighted flow) for table rendering."""
        return [
            (index, stretch, weighted)
            for index, (stretch, weighted) in enumerate(zip(self.stretches, self.weighted_flows))
        ]


def fairness_report(schedule: Schedule) -> FairnessReport:
    """Compute the fairness metrics of a complete schedule."""
    instance = schedule.instance
    completions = schedule.completion_times()
    if len(completions) < instance.num_jobs:
        raise WorkloadError("fairness analysis requires a schedule covering every job")

    stretches = [schedule.stretch(j) for j in range(instance.num_jobs)]
    weighted_flows = [schedule.weighted_flow(j) for j in range(instance.num_jobs)]
    median = float(np.median(stretches))
    return FairnessReport(
        stretches=stretches,
        weighted_flows=weighted_flows,
        max_stretch=float(np.max(stretches)),
        mean_stretch=float(np.mean(stretches)),
        median_stretch=median,
        jain=jain_index(stretches),
        starvation_ratio=float(np.max(stretches)) / median if median > 0 else float("inf"),
    )


