"""Unit tests for motif patterns and motif sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.gripps import Motif, MotifSet
from repro.gripps.motifs import MotifElement


def _residue(residues: str, min_repeat: int = 1, max_repeat: int = 1, negated: bool = False):
    return MotifElement(frozenset(residues), min_repeat, max_repeat, negated)


def _wildcard(min_repeat: int, max_repeat: int) -> MotifElement:
    return MotifElement(None, min_repeat, max_repeat)


class TestMotifParsing:
    """A motif's pattern elements translate to the regex it compiles to."""

    def test_simple_fixed_pattern(self):
        motif = Motif("m1", (_residue("C"), _residue("A"), _residue("T")))
        assert motif.to_regex() == "[C][A][T]"

    def test_residue_class_and_wildcard(self):
        motif = Motif("m2", (_residue("C"), _wildcard(2, 2), _residue("DE"), _residue("H")))
        assert motif.compile().search("AACQQDHAA") is not None
        assert motif.compile().search("AACQQAHAA") is None

    def test_variable_wildcard_range(self):
        motif = Motif("m3", (_residue("A"), _wildcard(1, 3), _residue("C")))
        pattern = motif.compile()
        assert pattern.search("AGC")
        assert pattern.search("AGGGC")
        assert not pattern.search("AGGGGC")

    def test_negated_class(self):
        motif = Motif("m4", (_residue("A"), _residue("P", negated=True), _residue("C")))
        pattern = motif.compile()
        assert pattern.search("AGC")
        assert not pattern.search("APC")

    def test_empty_pattern_rejected(self):
        with pytest.raises(WorkloadError):
            Motif("empty", tuple())

    def test_element_regex(self):
        element = _residue("DE", 2, 4)
        assert element.to_regex() == "[DE]{2,4}"


class TestRandomMotifs:
    def test_random_motif_is_compilable(self):
        rng = np.random.default_rng(0)
        motif = Motif.random("rand", rng)
        assert sum(element.min_repeat for element in motif.elements) >= 4
        motif.compile()  # must not raise

    def test_deterministic_generation(self):
        first = MotifSet.random("set", 10, seed=1)
        second = MotifSet.random("set", 10, seed=1)
        assert [m.to_regex() for m in first] == [m.to_regex() for m in second]


class TestMotifSet:
    @pytest.fixture
    def motif_set(self):
        return MotifSet.random("s", 30, seed=2)

    def test_len_and_indexing(self, motif_set):
        assert len(motif_set) == 30
        assert motif_set[0].identifier.startswith("s:m")

    def test_subset(self, motif_set):
        subset = motif_set.subset(10, seed=3)
        assert len(subset) == 10
        original = {m.identifier for m in motif_set}
        assert {m.identifier for m in subset} <= original

    def test_subset_size_bounds(self, motif_set):
        with pytest.raises(WorkloadError):
            motif_set.subset(0)
        with pytest.raises(WorkloadError):
            motif_set.subset(31)

    def test_partition(self, motif_set):
        parts = motif_set.partition(4)
        assert sum(len(p) for p in parts) == 30
        identifiers = [m.identifier for p in parts for m in p]
        assert identifiers == [m.identifier for m in motif_set]

    def test_invalid_generation_size(self):
        with pytest.raises(WorkloadError):
            MotifSet.random("s", 0)
