"""Calibrated GriPPS execution-time model (the substitute for the real testbed).

Section 2 of the paper reports three empirical facts about GriPPS requests
(≈300 motifs against a databank of ≈38 000 protein sequences, ≈110 s for the
full request on the reference machine):

1. execution time is (almost perfectly) linear in the *sequence block size*,
   with a fixed overhead estimated at **1.1 s** by linear regression
   (Figure 1(a));
2. execution time is linear in the *motif subset size*, with a much larger
   fixed overhead estimated at **10.5 s** (Figure 1(b));
3. communication costs are negligible.

We do not have the GriPPS binary or the cluster, so the reproduction's
"measurement device" is this cost model:

``T(nm, ns) = c0 + c_motif * nm + c_seq * ns + rate * nm * ns``

whose four coefficients are calibrated so that the three facts above hold
exactly for the reference request (nm = 300 motifs, ns = 38 000 sequences):

* intercept of the sequence-partition regression: ``c0 + c_motif * 300 = 1.1 s``;
* intercept of the motif-partition regression: ``c0 + c_seq * 38 000 = 10.5 s``;
* full-request time: ``T(300, 38 000) ≈ 110 s``.

A configurable multiplicative log-normal noise reproduces measurement jitter,
and a per-machine speed factor turns the model into the heterogeneous
platform of Section 3 (machine ``i`` with cycle time ``c_i`` takes
``c_i / c_ref`` times longer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import WorkloadError

__all__ = ["GrippsCostModel", "REFERENCE_MODEL"]


@dataclass(frozen=True)
class GrippsCostModel:
    """Affine-in-both-dimensions execution-time model for GriPPS requests.

    Attributes
    ----------
    base_overhead:
        Constant start-up cost ``c0`` in seconds (process launch, databank
        index open).
    per_motif_overhead:
        Cost per motif independent of the databank size (motif compilation),
        in seconds.
    per_sequence_overhead:
        Cost per sequence independent of the motif count (sequence I/O and
        parsing), in seconds.
    pair_rate:
        Cost of comparing one motif against one sequence, in seconds.
    noise_sigma:
        Standard deviation of the multiplicative log-normal measurement noise
        (0 disables noise).
    reference_motifs, reference_sequences:
        Size of the paper's reference request, kept for documentation and
        derived statistics.
    """

    base_overhead: float = 0.5
    per_motif_overhead: float = 0.002
    per_sequence_overhead: float = (10.5 - 0.5) / 38_000.0
    pair_rate: float = (110.0 - 10.5 - 0.6) / (300.0 * 38_000.0)
    noise_sigma: float = 0.0
    reference_motifs: int = 300
    reference_sequences: int = 38_000

    def __post_init__(self) -> None:
        for attribute in ("base_overhead", "per_motif_overhead", "per_sequence_overhead", "pair_rate"):
            if getattr(self, attribute) < 0:
                raise WorkloadError(f"{attribute} must be non-negative")
        if self.noise_sigma < 0:
            raise WorkloadError("noise_sigma must be non-negative")

    # ------------------------------------------------------------------ #
    # Mean model                                                          #
    # ------------------------------------------------------------------ #
    def expected_time(self, num_motifs: int, num_sequences: int, speed_factor: float = 1.0) -> float:
        """Expected execution time of a request on a machine of given speed factor.

        ``speed_factor`` is the ratio ``c_i / c_ref`` of the machine's cycle
        time to the reference machine's (1.0 reproduces the paper's numbers).
        """
        if num_motifs < 0 or num_sequences < 0:
            raise WorkloadError("request sizes must be non-negative")
        work = (
            self.base_overhead
            + self.per_motif_overhead * num_motifs
            + self.per_sequence_overhead * num_sequences
            + self.pair_rate * num_motifs * num_sequences
        )
        return work * speed_factor

    def measured_time(
        self,
        num_motifs: int,
        num_sequences: int,
        speed_factor: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """One noisy "measurement" of the execution time (virtual experiment)."""
        mean = self.expected_time(num_motifs, num_sequences, speed_factor)
        if self.noise_sigma <= 0 or rng is None:
            return mean
        return float(mean * rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    # ------------------------------------------------------------------ #
    # Derived quantities                                                  #
    # ------------------------------------------------------------------ #
    def request_size_mflop(self, num_motifs: int, num_sequences: int, mflops: float = 1000.0) -> float:
        """Convert a request into an abstract job size ``W_j`` in Mflop.

        The conversion assumes the reference machine sustains ``mflops``
        Mflop/s, so a request's size is its reference execution time times
        that rate.  The scheduling theory only needs relative sizes, so the
        exact rate is immaterial.
        """
        return self.expected_time(num_motifs, num_sequences) * mflops

    def with_noise(self, noise_sigma: float) -> "GrippsCostModel":
        """Return a copy of the model with a different noise level."""
        return GrippsCostModel(
            base_overhead=self.base_overhead,
            per_motif_overhead=self.per_motif_overhead,
            per_sequence_overhead=self.per_sequence_overhead,
            pair_rate=self.pair_rate,
            noise_sigma=noise_sigma,
            reference_motifs=self.reference_motifs,
            reference_sequences=self.reference_sequences,
        )


#: The model calibrated on the numbers quoted in the paper.
REFERENCE_MODEL = GrippsCostModel()
