"""Summary statistics used by the benches and examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..exceptions import WorkloadError

__all__ = ["SummaryStatistics", "summarize", "geometric_mean"]


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean / spread summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "median": self.median,
        }


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Compute count/mean/std/min/max/median of a non-empty sample."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise WorkloadError("cannot summarise an empty sample")
    return SummaryStatistics(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        maximum=float(array.max()),
        median=float(np.median(array)),
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values (used for ratio aggregation)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise WorkloadError("cannot take the geometric mean of an empty sample")
    if (array <= 0).any():
        raise WorkloadError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(array))))


