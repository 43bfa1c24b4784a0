"""Cross-process metrics aggregation: deterministic snapshot merging.

Parallel campaign/sweep drivers run each cell under a scoped
:class:`~repro.obs.metrics.MetricsRecorder` and ship the resulting
``snapshot()`` payload back through the future plumbing.  The parent
folds those snapshots **in deterministic emission order** (the same
order the sequential driver processes cells), so the merged driver
snapshot is structurally identical to the one a sequential run builds.

Merge semantics (the contract ROADMAP's "flight recorder" section
documents):

* **counters** sum,
* **gauges** keep the last value in merge order plus the running peak,
* **histograms** combine their count/total/min/max summaries.

Counter sums are exact for the integer-valued counters the runtime
emits, but wall-clock histograms (``*_seconds``) are inherently
nondeterministic, and a handful of counters depend on process topology
(how cells share a worker's caches).  :func:`deterministic_snapshot`
projects those out, leaving the byte-comparable core that the
``parallel == sequential`` tests assert on.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Mapping

from .metrics import MetricsRecorder

__all__ = [
    "VOLATILE_METRICS",
    "is_volatile_metric",
    "merge_snapshots",
    "deterministic_snapshot",
    "snapshot_bytes",
]

#: Metrics whose values legitimately depend on process topology or
#: wall-clock and are therefore excluded from byte-identity assertions.
#:
#: * ``campaign.in_flight`` — peak concurrency is 1 sequentially and up
#:   to ``max_workers`` in parallel, by construction.
#: * ``campaign.probe_constructions`` — the per-process context cache
#:   shares probe objects across items of one workload when they run in
#:   the same process; worker placement changes the hit pattern.
VOLATILE_METRICS = frozenset(
    {
        "campaign.in_flight",
        "campaign.probe_constructions",
    }
)


def is_volatile_metric(name: str) -> bool:
    """True when ``name`` is excluded from deterministic projections."""
    return (
        name in VOLATILE_METRICS
        or name.endswith("_seconds")
        or ".time." in name
    )


def merge_snapshots(
    snapshots: Iterable[Mapping[str, Mapping[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Fold snapshot payloads, in order, into one merged snapshot."""
    recorder = MetricsRecorder()
    for snapshot in snapshots:
        recorder.merge_snapshot(snapshot)
    return recorder.snapshot()


def deterministic_snapshot(
    snapshot: Mapping[str, Mapping[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Project out wall-clock and topology-dependent metrics.

    What remains is invariant across ``--max-workers`` settings: the
    parallel driver's merged snapshot and the sequential driver's
    snapshot serialise to identical bytes (see :func:`snapshot_bytes`).
    """
    projected: Dict[str, Dict[str, object]] = {}
    for section in ("counters", "gauges", "histograms"):
        entries = snapshot.get(section, {})
        projected[section] = {
            name: entries[name]
            for name in sorted(entries)
            if not is_volatile_metric(name)
        }
    return projected


def snapshot_bytes(snapshot: Mapping[str, Mapping[str, object]]) -> bytes:
    """Canonical bytes of the deterministic projection of ``snapshot``."""
    return json.dumps(
        deterministic_snapshot(snapshot), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
