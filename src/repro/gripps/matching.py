"""Motif-scanning engine: the computation GriPPS performs.

The real GriPPS code compares every motif of a request against every sequence
of the targeted databank.  This module provides an actual (if much slower)
implementation of that computation so that the divisibility property measured
in Figure 1 can be demonstrated end-to-end on real work, not only on the
calibrated cost model:

* :func:`scan_sequence` finds the matches of one motif in one sequence;
* :func:`scan_databank` compares a whole motif set against a whole databank
  and reports match counts and the number of residue comparisons performed —
  the quantity that grows linearly with both the motif-set size and the
  databank size, which is precisely the divisible-load property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .motifs import Motif, MotifSet
from .sequences import SequenceDatabank, SequenceRecord

__all__ = ["MotifMatch", "ScanReport", "scan_sequence", "scan_databank"]


@dataclass(frozen=True)
class MotifMatch:
    """One occurrence of a motif in a sequence."""

    motif_id: str
    sequence_id: str
    position: int
    matched: str


@dataclass
class ScanReport:
    """Aggregate result of comparing a motif set against a databank.

    Attributes
    ----------
    num_motifs, num_sequences:
        Size of the request.
    matches:
        Every motif occurrence found.
    residue_comparisons:
        Total number of residues examined — the work metric that scales
        linearly with the request size (the basis of the divisible-load
        model).
    """

    num_motifs: int
    num_sequences: int
    matches: List[MotifMatch]
    residue_comparisons: int

    @property
    def num_matches(self) -> int:
        """Number of motif occurrences found."""
        return len(self.matches)

    def merge(self, other: "ScanReport") -> "ScanReport":
        """Combine two reports obtained on disjoint blocks of the same request.

        The merge operation is what makes the workload divisible: scanning
        two halves of a databank independently and merging the reports gives
        exactly the same result as scanning the whole databank at once.
        """
        return ScanReport(
            num_motifs=max(self.num_motifs, other.num_motifs),
            num_sequences=self.num_sequences + other.num_sequences,
            matches=self.matches + other.matches,
            residue_comparisons=self.residue_comparisons + other.residue_comparisons,
        )


def scan_sequence(motif: Motif, record: SequenceRecord) -> List[MotifMatch]:
    """Find every occurrence of ``motif`` in ``record`` (overlaps allowed)."""
    pattern = motif.compile()
    matches: List[MotifMatch] = []
    position = 0
    text = record.sequence
    while True:
        found = pattern.search(text, position)
        if found is None:
            break
        matches.append(
            MotifMatch(
                motif_id=motif.identifier,
                sequence_id=record.identifier,
                position=found.start(),
                matched=found.group(0),
            )
        )
        position = found.start() + 1
    return matches


def scan_databank(motifs: MotifSet, databank: SequenceDatabank) -> ScanReport:
    """Compare every motif against every sequence of the databank."""
    matches: List[MotifMatch] = []
    residue_comparisons = 0
    for record in databank:
        for motif in motifs:
            matches.extend(scan_sequence(motif, record))
            # Every scan examines (essentially) every residue of the sequence;
            # counting them gives the linear work metric.
            residue_comparisons += record.length
    return ScanReport(
        num_motifs=len(motifs),
        num_sequences=len(databank),
        matches=matches,
        residue_comparisons=residue_comparisons,
    )
