"""Protein motifs: compact representations of biologically significant patterns.

GriPPS compares *motifs* — short amino-acid patterns in a PROSITE-like syntax
— against every sequence of a databank.  This module provides:

* :class:`Motif` — a pattern made of positions, each of which is either a
  fixed residue, a choice among several residues (``[ILV]``), an exclusion
  (``{P}``) or a wildcard with an optional repetition range (``x(2,4)``);
* :class:`MotifSet` — an ordered collection of motifs with the partitioning
  operations used by the Figure 1(b) experiment;
* random motif generation with realistic pattern-length statistics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .sequences import AMINO_ACIDS

__all__ = ["MotifElement", "Motif", "MotifSet"]


@dataclass(frozen=True)
class MotifElement:
    """One position of a motif pattern.

    Attributes
    ----------
    residues:
        The residues accepted at this position (``None`` means "any residue",
        i.e. the PROSITE ``x`` wildcard).
    min_repeat, max_repeat:
        Repetition range of the position (``x(2,4)`` accepts 2 to 4 arbitrary
        residues).
    negated:
        When ``True`` the position accepts any residue *except* those listed
        (PROSITE ``{...}`` syntax).
    """

    residues: Optional[frozenset] = None
    min_repeat: int = 1
    max_repeat: int = 1
    negated: bool = False

    def to_regex(self) -> str:
        """Render the element as a Python regular-expression fragment."""
        if self.residues is None:
            charset = "."
        elif self.negated:
            charset = "[^" + "".join(sorted(self.residues)) + "]"
        else:
            charset = "[" + "".join(sorted(self.residues)) + "]"
        if (self.min_repeat, self.max_repeat) == (1, 1):
            return charset
        if self.min_repeat == self.max_repeat:
            return f"{charset}{{{self.min_repeat}}}"
        return f"{charset}{{{self.min_repeat},{self.max_repeat}}}"


@dataclass(frozen=True)
class Motif:
    """A protein motif: an identifier plus an ordered list of pattern elements."""

    identifier: str
    elements: Tuple[MotifElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise WorkloadError(f"motif {self.identifier!r} has no pattern elements")

    # ------------------------------------------------------------------ #
    def to_regex(self) -> str:
        """Python regular expression matching the motif."""
        return "".join(element.to_regex() for element in self.elements)

    def compile(self) -> "re.Pattern[str]":
        """Compiled regular expression for the scanning engine."""
        return re.compile(self.to_regex())

    @staticmethod
    def random(identifier: str, rng: np.random.Generator, mean_length: float = 8.0) -> "Motif":
        """Generate a random but realistic motif."""
        length = max(4, int(rng.poisson(mean_length)))
        elements: List[MotifElement] = []
        letters = list(AMINO_ACIDS)
        for _ in range(length):
            kind = rng.random()
            if kind < 0.55:  # fixed residue
                elements.append(MotifElement(frozenset(rng.choice(letters))))
            elif kind < 0.80:  # residue class
                size = int(rng.integers(2, 5))
                chosen = rng.choice(letters, size=size, replace=False)
                elements.append(MotifElement(frozenset(str(c) for c in chosen)))
            elif kind < 0.92:  # wildcard with repetition
                min_repeat = int(rng.integers(1, 4))
                max_repeat = min_repeat + int(rng.integers(0, 3))
                elements.append(MotifElement(None, min_repeat, max_repeat))
            else:  # exclusion
                size = int(rng.integers(1, 3))
                chosen = rng.choice(letters, size=size, replace=False)
                elements.append(
                    MotifElement(frozenset(str(c) for c in chosen), negated=True)
                )
        return Motif(identifier=identifier, elements=tuple(elements))


@dataclass
class MotifSet:
    """An ordered collection of motifs (the user input of a GriPPS request)."""

    name: str
    motifs: List[Motif] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @staticmethod
    def random(
        name: str, num_motifs: int, seed: Optional[int] = None, mean_length: float = 8.0
    ) -> "MotifSet":
        """Generate ``num_motifs`` random motifs."""
        if num_motifs <= 0:
            raise WorkloadError(f"num_motifs must be positive, got {num_motifs}")
        rng = np.random.default_rng(seed)
        motifs = [
            Motif.random(f"{name}:m{k:04d}", rng, mean_length=mean_length)
            for k in range(num_motifs)
        ]
        return MotifSet(name=name, motifs=motifs)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.motifs)

    def __iter__(self):
        return iter(self.motifs)

    def __getitem__(self, index: int) -> Motif:
        return self.motifs[index]

    def subset(self, size: int, seed: Optional[int] = None) -> "MotifSet":
        """Return a random subset of ``size`` motifs (the Figure 1(b) protocol)."""
        if size <= 0 or size > len(self.motifs):
            raise WorkloadError(f"subset size must be in [1, {len(self.motifs)}], got {size}")
        rng = np.random.default_rng(seed)
        indices = sorted(rng.choice(len(self.motifs), size=size, replace=False))
        return MotifSet(name=f"{self.name}#subset{size}", motifs=[self.motifs[i] for i in indices])

    def partition(self, num_blocks: int) -> List["MotifSet"]:
        """Split the motif set into near-equal blocks."""
        if num_blocks <= 0 or num_blocks > len(self.motifs):
            raise WorkloadError(
                f"cannot split {len(self.motifs)} motifs into {num_blocks} blocks"
            )
        boundaries = np.linspace(0, len(self.motifs), num_blocks + 1).astype(int)
        return [
            MotifSet(
                name=f"{self.name}#part{k}",
                motifs=list(self.motifs[int(boundaries[k]) : int(boundaries[k + 1])]),
            )
            for k in range(num_blocks)
        ]
