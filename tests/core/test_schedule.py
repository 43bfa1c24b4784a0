"""Unit tests for the Schedule representation, metrics and validation."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job, Schedule, SchedulePiece
from repro.exceptions import InvalidScheduleError


@pytest.fixture
def instance() -> Instance:
    jobs = [Job("A", 0.0, weight=1.0), Job("B", 2.0, weight=3.0)]
    costs = [[4.0, 2.0], [8.0, 4.0]]
    return Instance.from_costs(jobs, costs)


class TestPieceConstruction:
    def test_piece_rejects_reversed_window(self):
        with pytest.raises(InvalidScheduleError):
            SchedulePiece(0, 0, 2.0, 1.0, 0.5)

    def test_piece_rejects_negative_fraction(self):
        with pytest.raises(InvalidScheduleError):
            SchedulePiece(0, 0, 0.0, 1.0, -0.1)

    def test_add_piece_infers_fraction(self, instance):
        schedule = Schedule(instance)
        piece = schedule.add_piece(0, 0, 0.0, 2.0)
        assert piece.fraction == pytest.approx(0.5)

    def test_add_piece_on_forbidden_machine_without_fraction_raises(self):
        jobs = [Job("A", 0.0)]
        inst = Instance.from_costs(jobs, [[2.0], [float("inf")]])
        schedule = Schedule(inst)
        with pytest.raises(InvalidScheduleError):
            schedule.add_piece(0, 1, 0.0, 1.0)


class TestMetrics:
    def _full_schedule(self, instance) -> Schedule:
        schedule = Schedule(instance)
        # Job A entirely on M0: [0, 4).  Job B entirely on M0: [4, 6).
        schedule.add_piece(0, 0, 0.0, 4.0, 1.0)
        schedule.add_piece(1, 0, 4.0, 6.0, 1.0)
        return schedule

    def test_completion_and_flow(self, instance):
        schedule = self._full_schedule(instance)
        assert schedule.completion_time(0) == 4.0
        assert schedule.completion_time(1) == 6.0
        assert schedule.flow(0) == pytest.approx(4.0)
        assert schedule.flow(1) == pytest.approx(4.0)
        assert schedule.weighted_flow(1) == pytest.approx(12.0)

    def test_aggregate_metrics(self, instance):
        schedule = self._full_schedule(instance)
        metrics = schedule.metrics()
        assert metrics.makespan == pytest.approx(6.0)
        assert metrics.max_flow == pytest.approx(4.0)
        assert metrics.max_weighted_flow == pytest.approx(12.0)
        assert metrics.total_flow == pytest.approx(8.0)
        assert metrics.mean_flow == pytest.approx(4.0)
        # Stretch of B: flow 4 / fastest time 2 = 2; stretch of A: 4/4 = 1.
        assert metrics.max_stretch == pytest.approx(2.0)
        assert "makespan" in metrics.summary()

    def test_completion_time_of_absent_job_raises(self, instance):
        schedule = Schedule(instance)
        with pytest.raises(InvalidScheduleError):
            schedule.completion_time(0)

    def test_empty_schedule_metrics_are_zero(self, instance):
        schedule = Schedule(instance)
        assert schedule.makespan == 0.0
        assert schedule.max_weighted_flow == 0.0

    def test_as_table_lists_pieces(self, instance):
        schedule = self._full_schedule(instance)
        table = schedule.as_table()
        assert "A" in table and "M0" in table


class TestValidation:
    def test_valid_schedule_passes(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 4.0, 1.0)
        schedule.add_piece(1, 1, 2.0, 6.0, 1.0)
        schedule.validate()

    def test_release_date_violation(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 4.0, 1.0)
        schedule.add_piece(1, 1, 1.0, 5.0, 1.0)  # B released at 2
        errors = schedule.validation_errors()
        assert any("release date" in error for error in errors)
        with pytest.raises(InvalidScheduleError):
            schedule.validate()

    def test_machine_overlap_detected(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 4.0, 1.0)
        schedule.add_piece(1, 0, 3.0, 5.0, 1.0)
        errors = schedule.validation_errors()
        assert any("simultaneously" in error for error in errors)

    def test_incomplete_job_detected(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 2.0, 0.5)
        schedule.add_piece(1, 1, 2.0, 6.0, 1.0)
        errors = schedule.validation_errors()
        assert any("fraction" in error for error in errors)
        assert schedule.validation_errors(require_completion=False) == []

    def test_duration_fraction_mismatch_detected(self, instance):
        schedule = Schedule(instance)
        schedule.pieces.append(SchedulePiece(0, 0, 0.0, 1.0, 1.0))  # 1 second but full job
        schedule.pieces.append(SchedulePiece(1, 1, 2.0, 6.0, 1.0))
        errors = schedule.validation_errors()
        assert any("does not match" in error for error in errors)

    def test_forbidden_machine_detected(self):
        jobs = [Job("A", 0.0)]
        inst = Instance.from_costs(jobs, [[2.0], [float("inf")]])
        schedule = Schedule(inst)
        schedule.pieces.append(SchedulePiece(0, 1, 0.0, 2.0, 1.0))
        errors = schedule.validation_errors()
        assert any("cannot process" in error for error in errors)

    def test_unknown_indices_detected(self, instance):
        schedule = Schedule(instance)
        schedule.pieces.append(SchedulePiece(7, 0, 0.0, 1.0, 0.1))
        schedule.pieces.append(SchedulePiece(0, 9, 0.0, 1.0, 0.1))
        errors = schedule.validation_errors(require_completion=False)
        assert any("unknown job" in error for error in errors)
        assert any("unknown machine" in error for error in errors)

    def test_divisible_allows_parallel_execution_of_one_job(self, instance):
        schedule = Schedule(instance, divisible=True)
        schedule.add_piece(0, 0, 0.0, 2.0, 0.5)
        schedule.add_piece(0, 1, 0.0, 4.0, 0.5)
        schedule.add_piece(1, 0, 2.0, 4.0, 1.0)
        schedule.validate()

    def test_preemptive_forbids_parallel_execution_of_one_job(self, instance):
        schedule = Schedule(instance, divisible=False)
        schedule.add_piece(0, 0, 0.0, 2.0, 0.5)
        schedule.add_piece(0, 1, 0.0, 4.0, 0.5)
        schedule.add_piece(1, 0, 2.0, 4.0, 1.0)
        errors = schedule.validation_errors()
        assert any("two machines" in error for error in errors)


class TestManipulation:
    def test_merge(self, instance):
        first = Schedule(instance)
        first.add_piece(0, 0, 0.0, 4.0, 1.0)
        second = Schedule(instance)
        second.add_piece(1, 1, 2.0, 6.0, 1.0)
        merged = first.merge(second)
        assert len(merged) == 2
        merged.validate()

    def test_merge_requires_same_instance(self, instance):
        other_instance = Instance.from_costs([Job("Z", 0.0)], [[1.0]])
        with pytest.raises(InvalidScheduleError):
            Schedule(instance).merge(Schedule(other_instance))

    def test_compact_removes_dust(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 0.0, 4.0, 1.0)
        schedule.pieces.append(SchedulePiece(1, 0, 4.0, 4.0, 0.0))
        compacted = schedule.compact()
        assert len(compacted) == 1

    def test_pieces_of_job_and_machine_are_sorted(self, instance):
        schedule = Schedule(instance)
        schedule.add_piece(0, 0, 2.0, 3.0, 0.25)
        schedule.add_piece(0, 0, 0.0, 1.0, 0.25)
        schedule.add_piece(1, 0, 4.0, 6.0, 1.0)
        starts = [piece.start for piece in schedule.pieces_of_job(0)]
        assert starts == sorted(starts)
        machine_starts = [piece.start for piece in schedule.pieces_on_machine(0)]
        assert machine_starts == sorted(machine_starts)
