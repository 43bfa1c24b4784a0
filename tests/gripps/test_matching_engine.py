"""Unit tests for the motif-scanning engine, including the divisibility property."""

from __future__ import annotations

import pytest

from repro.gripps import Motif, MotifSet, SequenceDatabank, scan_databank, scan_sequence
from repro.gripps.motifs import MotifElement
from repro.gripps.sequences import SequenceRecord


def _fixed_motif(identifier: str, residues: str) -> Motif:
    return Motif(identifier, tuple(MotifElement(frozenset(r)) for r in residues))


class TestScanSequence:
    def test_finds_single_match(self):
        motif = _fixed_motif("m", "CAT")
        record = SequenceRecord("seq", "GGGCATGGG")
        matches = scan_sequence(motif, record)
        assert len(matches) == 1
        assert matches[0].position == 3
        assert matches[0].matched == "CAT"

    def test_finds_overlapping_matches(self):
        motif = _fixed_motif("m", "AA")
        record = SequenceRecord("seq", "AAAA")
        matches = scan_sequence(motif, record)
        assert len(matches) == 3

    def test_no_match(self):
        motif = _fixed_motif("m", "WWW")
        record = SequenceRecord("seq", "ACDEFGHIKL")
        assert scan_sequence(motif, record) == []


class TestScanDatabank:
    @pytest.fixture
    def databank(self):
        return SequenceDatabank.synthetic("db", 40, mean_length=120, seed=9)

    @pytest.fixture
    def motifs(self):
        return MotifSet.random("m", 8, seed=10, mean_length=5)

    def test_report_counts(self, databank, motifs):
        report = scan_databank(motifs, databank)
        assert report.num_motifs == 8
        assert report.num_sequences == 40
        assert report.residue_comparisons == databank.total_residues * len(motifs)

    def test_divisibility_merge_equals_whole(self, databank, motifs):
        """Scanning blocks independently gives the same result as one scan.

        This is the computational essence of the divisible-load claim of
        Section 2: the work can be partitioned arbitrarily with no loss.
        """
        whole = scan_databank(motifs, databank)
        blocks = databank.partition(4)
        merged = scan_databank(motifs, blocks[0])
        for block in blocks[1:]:
            merged = merged.merge(scan_databank(motifs, block))
        assert merged.num_matches == whole.num_matches
        assert merged.residue_comparisons == whole.residue_comparisons
        assert merged.num_sequences == whole.num_sequences

    def test_motif_set_divisibility(self, databank, motifs):
        """Splitting the motif set and merging match counts also loses nothing."""
        whole = scan_databank(motifs, databank)
        parts = motifs.partition(2)
        combined = sum(scan_databank(part, databank).num_matches for part in parts)
        assert combined == whole.num_matches
