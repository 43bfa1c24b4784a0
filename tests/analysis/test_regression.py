"""Unit tests for linear regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import linear_regression
from repro.exceptions import WorkloadError


class TestExactFits:
    def test_perfect_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = 2.5 + 1.5 * x
        fit = linear_regression(x, y)
        assert fit.slope == pytest.approx(1.5)
        assert fit.intercept == pytest.approx(2.5)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10.0) == pytest.approx(17.5)

    def test_flat_line(self):
        fit = linear_regression([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.intercept == pytest.approx(4.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_matches_numpy_polyfit(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 100, size=50)
        y = 3.0 + 0.7 * x + rng.normal(0, 2.0, size=50)
        fit = linear_regression(x, y)
        slope_ref, intercept_ref = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(slope_ref)
        assert fit.intercept == pytest.approx(intercept_ref)


class TestStatistics:
    def test_noisy_fit_confidence_interval_contains_truth(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 50, 200)
        y = 5.0 + 2.0 * x + rng.normal(0, 1.0, size=200)
        fit = linear_regression(x, y)
        low, high = fit.intercept_confidence_interval(0.99)
        assert low <= 5.0 <= high
        low, high = fit.slope_confidence_interval(0.99)
        assert low <= 2.0 <= high
        assert 0.99 < fit.r_squared <= 1.0

    def test_summary_format(self):
        fit = linear_regression([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        text = fit.summary()
        assert "R^2" in text and "n = 3" in text

    def test_invalid_confidence_rejected(self):
        fit = linear_regression([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(WorkloadError):
            fit.intercept_confidence_interval(1.5)


class TestInputValidation:
    def test_mismatched_shapes(self):
        with pytest.raises(WorkloadError):
            linear_regression([1.0, 2.0], [1.0])

    def test_too_few_points(self):
        with pytest.raises(WorkloadError):
            linear_regression([1.0], [2.0])

    def test_constant_abscissa(self):
        with pytest.raises(WorkloadError):
            linear_regression([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


class TestCrossRunDiff:
    def _metrics(self, geo, records=4.0):
        return {"geo_mean_normalised": geo, "records": records}

    def test_identical_runs_are_clean(self):
        from repro.analysis import cross_run_diff

        metrics = {"mct": self._metrics(1.5), "fifo": self._metrics(3.0)}
        diff = cross_run_diff(metrics, metrics)
        assert diff.is_clean()
        assert diff.regressions() == []
        assert all(delta.flag() == "ok" for delta in diff.deltas)

    def test_worse_metric_is_a_regression_better_is_an_improvement(self):
        from repro.analysis import cross_run_diff

        baseline = {"mct": self._metrics(1.5), "fifo": self._metrics(3.0)}
        current = {"mct": self._metrics(1.8), "fifo": self._metrics(2.0)}
        diff = cross_run_diff(baseline, current)
        flags = {(d.policy, d.metric): d.flag() for d in diff.deltas}
        assert flags[("mct", "geo_mean_normalised")] == "regressed"
        assert flags[("fifo", "geo_mean_normalised")] == "improved"
        assert not diff.is_clean()
        regression = diff.regressions()[0]
        assert regression.delta == pytest.approx(0.3)
        assert regression.relative_delta == pytest.approx(0.2)

    def test_tolerance_suppresses_small_deltas(self):
        from repro.analysis import cross_run_diff

        diff = cross_run_diff(
            {"mct": self._metrics(1.5)}, {"mct": self._metrics(1.5 * (1 + 1e-9))}
        )
        assert diff.is_clean(1e-6)
        assert not diff.is_clean(1e-12)

    def test_coverage_changes_are_flagged_changed_not_regressed(self):
        from repro.analysis import cross_run_diff

        diff = cross_run_diff(
            {"mct": self._metrics(1.5, records=4.0)},
            {"mct": self._metrics(1.5, records=6.0)},
        )
        flags = {d.metric: d.flag() for d in diff.deltas}
        assert flags["records"] == "changed"
        assert diff.regressions() == []
        assert not diff.is_clean()

    def test_added_and_removed_policies(self):
        from repro.analysis import cross_run_diff

        diff = cross_run_diff({"mct": self._metrics(1.5)}, {"fifo": self._metrics(2.0)})
        flags = {(d.policy, d.metric): d.flag() for d in diff.deltas}
        assert flags[("mct", "geo_mean_normalised")] == "removed"
        assert flags[("fifo", "geo_mean_normalised")] == "added"
        for delta in diff.deltas:
            assert delta.delta is None and delta.relative_delta is None

    def test_deterministic_ordering(self):
        from repro.analysis import cross_run_diff

        baseline = {"z": self._metrics(1.0), "a": self._metrics(1.0)}
        diff = cross_run_diff(baseline, baseline)
        keys = [(d.policy, d.metric) for d in diff.deltas]
        assert keys == sorted(keys)

    def test_two_empty_runs_rejected(self):
        from repro.analysis import cross_run_diff

        with pytest.raises(WorkloadError):
            cross_run_diff({}, {})

    def test_for_policy_selector(self):
        from repro.analysis import cross_run_diff

        diff = cross_run_diff(
            {"mct": self._metrics(1.5), "fifo": self._metrics(2.0)},
            {"mct": self._metrics(1.5), "fifo": self._metrics(2.0)},
        )
        assert {d.policy for d in diff.for_policy("mct")} == {"mct"}

    def test_render_cross_run_diff_table(self):
        from repro.analysis import cross_run_diff, render_cross_run_diff

        baseline = {"mct": self._metrics(1.5)}
        clean = render_cross_run_diff(cross_run_diff(baseline, baseline))
        assert "clean" in clean and "mct" in clean and "flag" in clean
        dirty = render_cross_run_diff(
            cross_run_diff(baseline, {"mct": self._metrics(9.0)})
        )
        assert "regression" in dirty and "regressed" in dirty


class TestCellDelta:
    def test_missing_sides_have_no_delta_and_flag_coverage(self):
        from repro.analysis.regression import CellDelta

        added = CellDelta("w", "k", "mct", baseline=None, current=2.0)
        removed = CellDelta("w", "k", "mct", baseline=2.0, current=None)
        for cell in (added, removed):
            assert cell.delta is None and cell.relative_delta is None
        assert (added.flag(), removed.flag()) == ("added", "removed")

    def test_relative_delta_needs_a_non_zero_baseline(self):
        from repro.analysis.regression import CellDelta

        worse = CellDelta("w", "k", "mct", baseline=-4.0, current=-3.0)
        assert worse.delta == 1.0
        assert worse.relative_delta == 0.25
        assert worse.flag() == "regressed"
        zero = CellDelta("w", "k", "mct", baseline=0.0, current=1.0)
        assert zero.delta == 1.0 and zero.relative_delta is None

