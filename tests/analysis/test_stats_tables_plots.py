"""Unit tests for statistics helpers, ASCII tables, plots and reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    ExperimentReport,
    ascii_scatter,
    ascii_series,
    format_key_values,
    format_table,
    geometric_mean,
    summarize,
)
from repro.exceptions import WorkloadError


class TestSummaryStatistics:
    def test_summarize_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)
        assert stats.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert set(stats.as_dict()) == {"count", "mean", "std", "min", "max", "median"}

    def test_single_value_has_zero_std(self):
        assert summarize([7.0]).std == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(WorkloadError):
            summarize([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(WorkloadError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(WorkloadError):
            geometric_mean([])

class TestTables:
    def test_format_table_aligns_columns(self):
        table = format_table(
            ["name", "value"],
            [("alpha", 1.0), ("a-much-longer-name", 123.456)],
            title="demo",
        )
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # All data lines have the same width.
        assert len(set(len(line) for line in lines[2:])) <= 2

    def test_format_key_values(self):
        block = format_key_values([("alpha", 1.5), ("beta", "text")])
        assert "alpha" in block and "beta" in block
        assert format_key_values([]) == ""


class TestPlots:
    def test_ascii_scatter_contains_markers(self):
        x = np.linspace(0, 10, 20)
        y = 2 * x + 1
        art = ascii_scatter(x, y, title="line")
        assert "line" in art
        assert "*" in art

    def test_ascii_scatter_validation(self):
        with pytest.raises(WorkloadError):
            ascii_scatter([], [])
        with pytest.raises(WorkloadError):
            ascii_scatter([1.0], [1.0], width=2, height=2)

    def test_ascii_series_legend(self):
        x = [0.0, 1.0, 2.0]
        art = ascii_series(x, {"mct": [1, 2, 3], "online": [1, 1, 1]}, title="compare")
        assert "mct" in art and "online" in art
        with pytest.raises(WorkloadError):
            ascii_series(x, {})


    def test_degenerate_ranges_still_plot(self):
        # One x value and an all-zero y: both axes get a unit span instead of
        # dividing by zero.
        art = ascii_scatter([3.0, 3.0], [0.0, 0.0], width=12, height=5)
        assert art.count("*") == 1
        series = ascii_series([1.0], {"flat": [0.0]}, width=12, height=5)
        assert "flat" in series


class TestExperimentReport:
    def test_report_rendering_and_errors(self):
        report = ExperimentReport("E3", "overhead regression")
        report.add("sequence overhead [s]", 1.1, 1.15)
        report.add("motif overhead [s]", 10.5, 10.4, note="regression intercept")
        text = report.render()
        assert "E3" in text and "sequence overhead [s]" in text
        assert report.max_relative_error() == pytest.approx(0.05 / 1.1, rel=1e-6)
        record = report.records[0]
        assert record.ratio == pytest.approx(1.15 / 1.1)
        assert record.relative_error == pytest.approx(0.05 / 1.1)

    def test_zero_paper_value_gives_none_ratio(self):
        report = ExperimentReport("X", "degenerate")
        report.add("something", 0.0, 1.0)
        assert report.records[0].ratio is None
        assert report.max_relative_error() == 0.0
