"""Metrics: named counters, gauges and histograms behind a ``Recorder``.

Design constraints (ISSUE 8):

* **Zero overhead when disabled.**  The module-level default is the
  shared :data:`NULL_RECORDER`; instrumented call sites either guard on
  ``recorder.enabled`` or emit a constant number of aggregate calls per
  run (never per event).  The ``obs-recorder-default`` lint rule keeps
  concrete recorders out of instrumented modules entirely — they are
  *injected*, via a constructor argument or :func:`install_recorder`.
* **Outside the digest.**  Snapshots are reporting artefacts: they ride
  in ``records.extra`` next to (never inside) the record payload, so a
  new counter never needs a ``CODE_EPOCH`` bump.
* **Deterministic rendering.**  ``snapshot()`` sorts every mapping, so
  two identical runs serialise to identical bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Protocol, runtime_checkable

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MetricsRecorder",
    "HistogramSummary",
    "get_recorder",
    "install_recorder",
    "collecting",
    "render_metrics",
]


@runtime_checkable
class Recorder(Protocol):
    """Protocol every metrics sink implements.

    ``enabled`` is a plain attribute (not a property) so hot paths can
    hoist it into a local boolean before a loop.
    """

    enabled: bool

    def count(self, name: str, value: float = 1.0) -> None: ...

    def gauge(self, name: str, value: float) -> None: ...

    def observe(self, name: str, value: float) -> None: ...


class NullRecorder:
    """No-op sink: the only legal module-level default in ``src/repro``."""

    enabled = False

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


NULL_RECORDER = NullRecorder()


@dataclass
class HistogramSummary:
    """Streaming summary of an observed distribution (no samples kept)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRecorder:
    """In-memory recorder aggregating counters, gauges and histograms.

    Gauges keep both the last and the maximum observed value (the
    maximum is what occupancy-style gauges such as ``campaign.in_flight``
    are read for).
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.gauge_peaks: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value
        previous = self.gauge_peaks.get(name)
        if previous is None or value > previous:
            self.gauge_peaks[name] = value

    def observe(self, name: str, value: float) -> None:
        summary = self.histograms.get(name)
        if summary is None:
            summary = self.histograms[name] = HistogramSummary()
        summary.add(value)

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold one :meth:`snapshot` payload into this recorder.

        The merge semantics are the cross-process aggregation contract:
        counters sum, gauges keep the merge order's last value and the
        running peak, histograms combine their count/total/min/max
        summaries.  Folding worker snapshots in a
        deterministic order therefore reproduces the recorder a single
        process would have built by observing the same events directly —
        up to float-addition grouping, which is why instrumented drivers
        fold *every* scope (in-process ones included) instead of mixing
        direct observation with merged snapshots.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, float(value))
        for name, entry in snapshot.get("gauges", {}).items():
            self.gauges[name] = float(entry["last"])
            peak = float(entry["peak"])
            previous = self.gauge_peaks.get(name)
            if previous is None or peak > previous:
                self.gauge_peaks[name] = peak
        for name, entry in snapshot.get("histograms", {}).items():
            summary = self.histograms.get(name)
            if summary is None:
                summary = self.histograms[name] = HistogramSummary()
            count = int(entry["count"])
            summary.count += count
            summary.total += float(entry["total"])
            if count:
                summary.minimum = min(summary.minimum, float(entry["min"]))
                summary.maximum = max(summary.maximum, float(entry["max"]))

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly, deterministically ordered view of everything."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {
                k: {"last": self.gauges[k], "peak": self.gauge_peaks[k]}
                for k in sorted(self.gauges)
            },
            "histograms": {
                k: self.histograms[k].as_dict() for k in sorted(self.histograms)
            },
        }


_installed: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """Return the process-wide recorder (``NULL_RECORDER`` by default)."""
    return _installed


def install_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` process-wide; returns the previous one."""
    global _installed
    previous = _installed
    _installed = recorder
    return previous


@contextmanager
def collecting(recorder: Optional[MetricsRecorder] = None) -> Iterator[MetricsRecorder]:
    """Install a fresh (or given) :class:`MetricsRecorder` for a scope.

    This is the sanctioned way for drivers (CLI, sweeps, benches) to turn
    metrics on without instrumented modules ever constructing a concrete
    recorder themselves.
    """
    active = MetricsRecorder() if recorder is None else recorder
    previous = install_recorder(active)
    try:
        yield active
    finally:
        install_recorder(previous)


def render_metrics(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """Plain-text table of a :meth:`MetricsRecorder.snapshot` payload."""
    lines = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:g}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            entry = gauges[name]
            lines.append(
                f"  {name:<{width}}  last={entry['last']:g} peak={entry['peak']:g}"
            )
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:<{width}}  n={h['count']:g} mean={h['mean']:.6g}"
                f" min={h['min']:.6g} max={h['max']:.6g}"
            )
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)
