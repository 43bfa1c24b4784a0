"""Snapshot merging (the cross-process aggregation the parallel drivers use)
and the deterministic projection the ``parallel == sequential`` tests compare."""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRecorder
from tests.reference.snapshots import (
    VOLATILE_METRICS,
    deterministic_snapshot,
    is_volatile_metric,
    snapshot_bytes,
)


def _snapshot(build):
    recorder = MetricsRecorder()
    build(recorder)
    return recorder.snapshot()


def merge_snapshots(snapshots):
    """Fold snapshot payloads, in order, the way the drivers fold their workers'."""
    recorder = MetricsRecorder()
    for snapshot in snapshots:
        recorder.merge_snapshot(snapshot)
    return recorder.snapshot()


def test_merge_equals_direct_recording():
    """Splitting one recording across recorders and merging is lossless."""

    def combined(recorder):
        recorder.count("cells", 3.0)
        recorder.count("solves", 2.0)
        recorder.gauge("window", 4.0)
        recorder.gauge("window", 2.0)
        recorder.observe("stretch", 1.5)
        recorder.observe("stretch", 3.5)

    def first(recorder):
        recorder.count("cells", 3.0)
        recorder.gauge("window", 4.0)
        recorder.observe("stretch", 1.5)

    def second(recorder):
        recorder.count("solves", 2.0)
        recorder.gauge("window", 2.0)
        recorder.observe("stretch", 3.5)

    merged = merge_snapshots([_snapshot(first), _snapshot(second)])
    assert merged == _snapshot(combined)


def test_counters_sum_and_histograms_combine():
    merged = merge_snapshots(
        [
            _snapshot(lambda r: (r.count("n", 2.0), r.observe("h", 1.0))),
            _snapshot(lambda r: (r.count("n", 5.0), r.observe("h", 9.0))),
        ]
    )
    assert merged["counters"]["n"] == 7.0
    histogram = merged["histograms"]["h"]
    assert histogram["count"] == 2
    assert histogram["total"] == 10.0
    assert histogram["min"] == 1.0
    assert histogram["max"] == 9.0


def test_gauges_keep_last_in_merge_order_plus_peak():
    snapshots = [
        _snapshot(lambda r: r.gauge("g", 7.0)),
        _snapshot(lambda r: r.gauge("g", 3.0)),
    ]
    merged = merge_snapshots(snapshots)
    assert merged["gauges"]["g"]["last"] == 3.0
    assert merged["gauges"]["g"]["peak"] == 7.0
    # Reversed merge order flips "last" but never the peak.
    reversed_merge = merge_snapshots(reversed(snapshots))
    assert reversed_merge["gauges"]["g"]["last"] == 7.0
    assert reversed_merge["gauges"]["g"]["peak"] == 7.0


def test_is_volatile_metric():
    for name in VOLATILE_METRICS:
        assert is_volatile_metric(name)
    assert is_volatile_metric("campaign.chunk_seconds")
    assert is_volatile_metric("lp.time.revised.dual")
    assert not is_volatile_metric("campaign.items")
    assert not is_volatile_metric("stream.arrivals")


def test_deterministic_snapshot_projects_out_volatile_metrics():
    snapshot = _snapshot(
        lambda r: (
            r.count("campaign.items", 4.0),
            r.count("campaign.probe_constructions", 2.0),
            r.gauge("campaign.in_flight", 3.0),
            r.observe("campaign.chunk_seconds", 0.1),
            r.observe("sweep.stretch", 2.0),
        )
    )
    projected = deterministic_snapshot(snapshot)
    assert projected["counters"] == {"campaign.items": 4.0}
    assert projected["gauges"] == {}
    assert list(projected["histograms"]) == ["sweep.stretch"]


def test_snapshot_bytes_canonical_and_projection_stable():
    volatile = _snapshot(
        lambda r: (
            r.count("campaign.items", 4.0),
            r.observe("campaign.chunk_seconds", 0.25),
        )
    )
    clean = _snapshot(lambda r: r.count("campaign.items", 4.0))
    assert snapshot_bytes(volatile) == snapshot_bytes(clean)
    payload = json.loads(snapshot_bytes(clean).decode("utf-8"))
    assert payload["counters"] == {"campaign.items": 4.0}
