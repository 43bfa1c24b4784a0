#!/usr/bin/env python3
"""Reproduce the Figure 1 divisibility studies of the paper (Section 2).

The script runs the two experimental protocols on the calibrated GriPPS cost
model, fits the linear regressions the paper quotes (overheads of ~1.1 s and
~10.5 s), renders ASCII versions of Figure 1(a) and 1(b), and finally shows
the same divisibility property on *real* computation by scanning a small
synthetic databank block by block.

Run with::

    python examples/divisibility_study.py
"""

from __future__ import annotations

from repro.analysis import ascii_scatter, linear_regression
from repro.gripps import (
    GrippsApplication,
    MotifSet,
    SequenceDatabank,
    communication_study,
    motif_divisibility_experiment,
    sequence_divisibility_experiment,
)


def virtual_studies() -> None:
    """The calibrated (virtual-time) reproduction of Figure 1."""
    print("=" * 72)
    print("Figure 1(a): sequence databank divisibility")
    print("=" * 72)
    study_a = sequence_divisibility_experiment(repetitions=10)
    sizes, times = study_a.as_arrays()
    fit_a = linear_regression(sizes, times)
    print(ascii_scatter(sizes, times, title="GriPPS execution time vs sequence block size",
                        x_label="sequences", y_label="sec"))
    print(f"\nlinear fit: {fit_a.summary()}")
    print(f"fixed overhead (paper: 1.1 s): {fit_a.intercept:.2f} s")
    print()

    print("=" * 72)
    print("Figure 1(b): motif set divisibility")
    print("=" * 72)
    study_b = motif_divisibility_experiment(repetitions=10)
    sizes, times = study_b.as_arrays()
    fit_b = linear_regression(sizes, times)
    print(ascii_scatter(sizes, times, title="GriPPS execution time vs motif subset size",
                        x_label="motifs", y_label="sec"))
    print(f"\nlinear fit: {fit_b.summary()}")
    print(f"fixed overhead (paper: 10.5 s): {fit_b.intercept:.2f} s")
    print()

    comm = communication_study()
    print("Communication study (Section 2, last paragraph):")
    print(f"  motif upload   : {comm.motif_transfer_seconds * 1000:.2f} ms")
    print(f"  result download: {comm.result_transfer_seconds * 1000:.2f} ms")
    print(f"  computation    : {comm.computation_seconds:.1f} s")
    print(f"  ratio          : {comm.communication_ratio:.5%}  -> negligible, as the paper argues")
    print()


def real_scan_study() -> None:
    """Demonstrate divisibility on real motif-scanning computation."""
    print("=" * 72)
    print("Real-computation check: block scanning equals whole-databank scanning")
    print("=" * 72)
    databank = SequenceDatabank.synthetic("demo-bank", 200, mean_length=200, seed=11)
    motifs = MotifSet.random("demo-motifs", 12, seed=12, mean_length=5)
    application = GrippsApplication(seed=13)

    whole_time, whole_report = application.run_real(motifs, databank)
    print(f"whole databank : {whole_report.num_matches} matches, "
          f"{whole_report.residue_comparisons} residue comparisons, {whole_time * 1000:.1f} ms")

    merged = None
    block_time_total = 0.0
    for block in databank.partition(4):
        elapsed, report = application.run_real(motifs, block)
        block_time_total += elapsed
        merged = report if merged is None else merged.merge(report)
    print(f"4 blocks merged: {merged.num_matches} matches, "
          f"{merged.residue_comparisons} residue comparisons, {block_time_total * 1000:.1f} ms")
    print("-> identical results; aggregate work is preserved under partitioning,")
    print("   which is exactly the divisible-load property the scheduler exploits.")


def main() -> None:
    virtual_studies()
    real_scan_study()


if __name__ == "__main__":
    main()
