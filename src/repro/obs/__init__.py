"""Observability: tracing, metrics, profiling and the flight recorder.

Pillars, all zero-overhead when disabled:

* :mod:`repro.obs.metrics` — counters/gauges/histograms behind the
  :class:`~repro.obs.metrics.Recorder` protocol; the process default is
  the no-op :data:`~repro.obs.metrics.NULL_RECORDER` and concrete
  recorders are only ever *injected* (``obs-recorder-default`` lint rule).
* :mod:`repro.obs.trace` — span/event records on the simulated clock,
  byte-identical across runs and engines; JSON-lines and Chrome
  trace-event (Perfetto) exports.
* :mod:`repro.obs.clock` / :mod:`repro.obs.profile` — the only sanctioned
  wall-clock accessors in ``src/repro`` (enforced by the ``wall-clock``
  lint rule) and the phase profiler built on them.
* :mod:`repro.obs.journal` — the flight recorder: a crash-tolerant
  JSONL run journal the drivers write lifecycle events to, and the fold
  behind ``repro-sched obs report JOURNAL``.  Workers' metrics snapshots
  merge into the driver's recorder in emission order
  (:meth:`~repro.obs.metrics.MetricsRecorder.merge_snapshot`).

Metrics, traces and journals are reporting artefacts: they live
*outside* record digests and fingerprints, so adding a counter or a
journal event never bumps ``CODE_EPOCH`` (ROADMAP, "Architecture: the
observability layer" and "Architecture: the flight recorder").
"""

from .clock import unix_time, utc_now, utc_timestamp, wall_clock
from .journal import (
    FleetStatus,
    JournalView,
    RunJournal,
    analyse_journal,
    new_run_id,
    read_journal,
    render_fleet_status,
)
from .metrics import (
    NULL_RECORDER,
    HistogramSummary,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    collecting,
    get_recorder,
    install_recorder,
    render_metrics,
)
from .profile import PhaseProfiler, PhaseStat
from .trace import TraceEvent, Tracer, trace_campaign_records, trace_stream_result

__all__ = [
    "wall_clock",
    "unix_time",
    "utc_now",
    "utc_timestamp",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MetricsRecorder",
    "HistogramSummary",
    "get_recorder",
    "install_recorder",
    "collecting",
    "render_metrics",
    "RunJournal",
    "JournalView",
    "new_run_id",
    "read_journal",
    "FleetStatus",
    "analyse_journal",
    "render_fleet_status",
    "Tracer",
    "TraceEvent",
    "trace_stream_result",
    "trace_campaign_records",
    "PhaseProfiler",
    "PhaseStat",
]
