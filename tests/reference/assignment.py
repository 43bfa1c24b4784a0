"""Frozen strict-``<`` machine scan: the reference for ``fastest_free_assignment``.

This is the assignment :func:`repro.heuristics.base.fastest_free_assignment`
made before it walked per-job machine preference orders.  Each job, in
ranked order, scans the still-free machines in ascending index and keeps
the first strictly cheaper one, so it takes the lowest-index free machine
of minimum cost; a job no free machine can run (every free cost ``inf``) is
skipped.  Do not optimise this file: the property tests compare the package
against it share for share, insertion order included.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.simulation.state import AllocationDecision

__all__ = ["strict_scan_assignment"]


def strict_scan_assignment(instance, ranked: Iterable[int]) -> AllocationDecision:
    """The strict-``<`` scan over the free machines, reading ``instance.costs``."""
    rows = list(instance.costs)
    free_machines = list(range(instance.num_machines))
    shares: Dict[int, List] = {}
    for job_index in ranked:
        if not free_machines:
            break
        best_machine = -1
        best_cost = math.inf
        for machine_index in free_machines:
            cost = rows[machine_index][job_index]
            if cost < best_cost:
                best_cost = cost
                best_machine = machine_index
        if best_machine < 0:
            continue
        shares[best_machine] = [(job_index, 1.0)]
        free_machines.remove(best_machine)
    return AllocationDecision(shares=shares, all_exclusive=True)
