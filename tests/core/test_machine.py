"""Unit tests for the Machine and Platform models."""

from __future__ import annotations

import math

import pytest

from repro.core import Job, Machine, Platform
from repro.exceptions import InvalidInstanceError


class TestMachine:
    def test_valid_machine(self):
        machine = Machine("M1", cycle_time=0.5, databanks=frozenset({"sprot"}))
        assert machine.cycle_time == 0.5 and machine.databanks == frozenset({"sprot"})

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Machine("")

    def test_nonpositive_cycle_time_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Machine("M1", cycle_time=0.0)

    def test_databanks_coerced_to_frozenset(self):
        machine = Machine("M1", databanks={"a"})  # type: ignore[arg-type]
        assert isinstance(machine.databanks, frozenset)

    def test_can_run_requires_all_databanks(self):
        machine = Machine("M1", databanks=frozenset({"a", "b"}))
        assert machine.can_run(Job("J", 0.0, databanks=frozenset({"a"})))
        assert machine.can_run(Job("J", 0.0, databanks=frozenset({"a", "b"})))
        assert not machine.can_run(Job("J", 0.0, databanks=frozenset({"a", "c"})))

    def test_processing_time_uniform_model(self):
        machine = Machine("M1", cycle_time=2.0, databanks=frozenset({"a"}))
        job = Job("J", 0.0, size=5.0, databanks=frozenset({"a"}))
        assert machine.processing_time(job) == pytest.approx(10.0)

    def test_processing_time_infinite_when_databank_missing(self):
        machine = Machine("M1", cycle_time=2.0)
        job = Job("J", 0.0, size=5.0, databanks=frozenset({"a"}))
        assert math.isinf(machine.processing_time(job))

    def test_processing_time_requires_size(self):
        machine = Machine("M1")
        with pytest.raises(InvalidInstanceError):
            machine.processing_time(Job("J", 0.0))


class TestPlatform:
    def _platform(self):
        return Platform(
            [
                Machine("A", cycle_time=1.0, databanks=frozenset({"bank1"})),
                Machine("B", cycle_time=2.0, databanks=frozenset({"bank1", "bank2"})),
                Machine("C", cycle_time=0.5, databanks=frozenset({"bank2"})),
            ]
        )

    def test_basic_accessors(self):
        platform = self._platform()
        assert len(platform) == 3
        assert platform.names == ["A", "B", "C"]
        assert platform[1].name == "B"
        assert {machine.name for machine in platform} == {"A", "B", "C"}

    def test_empty_platform_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Platform([])

    def test_duplicate_machine_names_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Platform([Machine("A"), Machine("A")])

    def test_non_machine_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Platform(["not a machine"])  # type: ignore[list-item]

    def test_databank_queries(self):
        platform = self._platform()
        assert platform.databanks == frozenset({"bank1", "bank2"})

    def test_eligible_machines(self):
        platform = self._platform()
        job = Job("J", 0.0, size=1.0, databanks=frozenset({"bank2"}))
        assert [m.name for m in platform if m.can_run(job)] == ["B", "C"]
