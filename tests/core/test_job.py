"""Unit tests for the Job model."""

from __future__ import annotations

import pytest

from repro.core import Job, deadline_function, sort_by_release_date
from repro.core.job import validate_jobs
from repro.exceptions import InvalidInstanceError


class TestJobValidation:
    def test_valid_job(self):
        job = Job("J1", 2.0, weight=1.5, size=10.0, databanks=frozenset({"sprot"}))
        assert job.name == "J1"
        assert job.release_date == 2.0
        assert job.size == 10.0

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job("", 0.0)

    def test_negative_release_date_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job("J1", -1.0)

    def test_infinite_release_date_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job("J1", float("inf"))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job("J1", 0.0, weight=0.0)
        with pytest.raises(InvalidInstanceError):
            Job("J1", 0.0, weight=-2.0)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job("J1", 0.0, size=0.0)

    def test_databanks_coerced_to_frozenset(self):
        job = Job("J1", 0.0, databanks={"a", "b"})  # type: ignore[arg-type]
        assert isinstance(job.databanks, frozenset)
        assert job.databanks == frozenset({"a", "b"})


class TestJobDerivedQuantities:
    def test_deadline_for_flow(self):
        job = Job("J1", 3.0, weight=2.0)
        assert deadline_function(job)(4.0) == pytest.approx(5.0)

    def test_deadline_for_zero_flow_is_release_date(self):
        job = Job("J1", 3.0, weight=2.0)
        assert deadline_function(job)(0.0) == pytest.approx(3.0)

    def test_weighted_flow(self):
        job = Job("J1", 1.0, weight=3.0)
        assert job.weighted_flow(5.0) == pytest.approx(12.0)

    def test_stretch_weight(self):
        job = Job("J1", 0.0, size=4.0)
        assert job.stretch_weight() == pytest.approx(0.25)

    def test_stretch_weight_requires_size(self):
        with pytest.raises(InvalidInstanceError):
            Job("J1", 0.0).stretch_weight()

    def test_with_weight(self):
        job = Job("J1", 1.0, weight=2.0, size=5.0, databanks=frozenset({"x"}))
        reweighted = job.with_weight(4.0)
        assert reweighted.weight == 4.0 and reweighted.release_date == job.release_date
        assert reweighted.size == job.size and reweighted.databanks == job.databanks


class TestJobCollections:
    def test_sort_by_release_date(self):
        jobs = [Job("a", 5.0), Job("b", 1.0), Job("c", 3.0)]
        ordered = sort_by_release_date(jobs)
        assert [job.name for job in ordered] == ["b", "c", "a"]

    def test_sort_is_stable_on_ties(self):
        jobs = [Job("x", 1.0), Job("y", 1.0), Job("z", 0.0)]
        ordered = sort_by_release_date(jobs)
        assert [job.name for job in ordered] == ["z", "x", "y"]

    def test_validate_jobs_rejects_empty(self):
        with pytest.raises(InvalidInstanceError):
            validate_jobs([])

    def test_validate_jobs_rejects_duplicates(self):
        with pytest.raises(InvalidInstanceError):
            validate_jobs([Job("dup", 0.0), Job("dup", 1.0)])
