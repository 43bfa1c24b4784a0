"""Analysis toolkit (substrate S13): regression, statistics, tables, plots, reports."""

from .campaign import (
    CampaignRecord,
    CampaignResult,
    CampaignStats,
    WorkloadSpec,
    run_policy_campaign,
    run_scenario_campaign,
    stream_campaign,
)
from .fairness import FairnessReport, fairness_report, jain_index
from .plots import ascii_scatter, ascii_series
from .regression import (
    CellDelta,
    CellDiff,
    CrossRunDiff,
    LinearFit,
    MetricDelta,
    cross_run_cell_diff,
    cross_run_diff,
    linear_regression,
)
from .reporting import (
    ComparisonRecord,
    ExperimentReport,
    render_cell_diff,
    render_cross_run_diff,
)
from .stats import (
    SummaryStatistics,
    geometric_mean,
    summarize,
)
from .steady_state import (
    SaturationScan,
    SteadyStateEstimate,
    SteadyStateReport,
    analyse_stream,
    batch_means,
    saturation_scan,
)
from .stream_sweep import (
    StreamCellRecord,
    StreamSweepResult,
    StreamSweepStats,
    run_stream_sweep,
)
from .tables import format_key_values, format_table

__all__ = [
    "CampaignRecord",
    "CampaignResult",
    "CampaignStats",
    "SaturationScan",
    "SteadyStateEstimate",
    "SteadyStateReport",
    "saturation_scan",
    "StreamCellRecord",
    "StreamSweepResult",
    "StreamSweepStats",
    "analyse_stream",
    "batch_means",
    "run_stream_sweep",
    "ComparisonRecord",
    "ExperimentReport",
    "FairnessReport",
    "fairness_report",
    "jain_index",
    "WorkloadSpec",
    "run_policy_campaign",
    "run_scenario_campaign",
    "stream_campaign",
    "CellDelta",
    "CellDiff",
    "CrossRunDiff",
    "LinearFit",
    "MetricDelta",
    "SummaryStatistics",
    "cross_run_cell_diff",
    "cross_run_diff",
    "render_cell_diff",
    "render_cross_run_diff",
    "ascii_scatter",
    "ascii_series",
    "format_key_values",
    "format_table",
    "geometric_mean",
    "linear_regression",
    "summarize",
]
