"""Deterministic tracing: span/event records on the *simulated* clock.

A :class:`Tracer` accumulates structured events whose timestamps are
simulated seconds (the event clock), never wall clock — so two identical
runs, or the ``view`` and ``rebuild`` stream engines on the same replayed
stream, serialise to byte-identical JSON lines.  Wall-clock readings may
be attached explicitly as *annotations* (``annotate_wall_clock``); they
are ordinary events carrying a ``wall`` argument and are excluded from
the determinism contract (and from the determinism tests).

Two export formats:

* :meth:`Tracer.to_jsonl` — one compact, key-sorted JSON object per
  line; the byte-identity format asserted by the tests and benches.
* :meth:`Tracer.to_chrome` — the Chrome trace-event JSON consumed by
  Perfetto / ``chrome://tracing``: simulated seconds become microsecond
  ``ts``/``dur`` fields, tracks become ``pid``/``tid`` lanes named via
  metadata events.

:func:`trace_stream_result` builds a trace *from* a finished
:class:`~repro.simulation.stream.StreamResult` — per-job spans from the
completion series, a queue-occupancy counter track from the recorded
trajectory — so the frozen legacy engine needs no instrumentation:
byte-identity of traces across engines follows from byte-identity of the
results they are derived from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from .clock import wall_clock

__all__ = ["TraceEvent", "Tracer", "trace_stream_result", "trace_campaign_records"]

#: Number of lanes job spans are distributed over in the Chrome export.
_JOB_LANES = 16


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``phase`` follows the Chrome trace-event vocabulary: ``"X"`` complete
    span, ``"I"`` instant, ``"C"`` counter.  ``time`` and ``duration``
    are simulated seconds.
    """

    name: str
    phase: str
    time: float
    duration: float = 0.0
    track: str = "main"
    args: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "ph": self.phase,
            "time": self.time,
            "track": self.track,
        }
        if self.phase == "X":
            payload["duration"] = self.duration
        if self.args:
            payload["args"] = dict(self.args)
        return payload


class Tracer:
    """Accumulates :class:`TraceEvent` records for export."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def complete(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        track: str = "main",
        **args: object,
    ) -> None:
        self.events.append(TraceEvent(name, "X", start, duration, track=track, args=args))

    def counter(self, name: str, time: float, value: float, *, track: str = "main") -> None:
        self.events.append(TraceEvent(name, "C", time, track=track, args={"value": value}))

    def annotate_wall_clock(self, name: str, time: float, *, track: str = "main") -> None:
        """Attach a wall-clock annotation (explicitly nondeterministic)."""
        self.events.append(
            TraceEvent(name, "I", time, track=track, args={"wall": wall_clock()})
        )

    # -- exports ---------------------------------------------------------

    def to_jsonl(self) -> str:
        """One key-sorted compact JSON object per event, trailing newline.

        This is the byte-identity export: identical runs produce
        identical bytes (provided no wall-clock annotations were added).
        """
        lines = [
            json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))
            for event in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome(self) -> str:
        """Chrome trace-event JSON (Perfetto-loadable).

        Simulated seconds are scaled to microseconds; each distinct track
        becomes a ``tid`` (first-seen order, hence deterministic) with a
        ``thread_name`` metadata record.
        """
        tids: Dict[str, int] = {}
        records: List[Dict[str, object]] = []
        for event in self.events:
            tid = tids.get(event.track)
            if tid is None:
                tid = tids[event.track] = len(tids) + 1
                records.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": event.track},
                    }
                )
            record: Dict[str, object] = {
                "name": event.name,
                "ph": event.phase,
                "ts": event.time * 1e6,
                "pid": 1,
                "tid": tid,
            }
            if event.phase == "X":
                record["dur"] = event.duration * 1e6
            if event.args:
                record["args"] = dict(event.args)
            records.append(record)
        payload = {"traceEvents": records, "displayTimeUnit": "ms"}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def trace_stream_result(
    result,
    tracer: Optional[Tracer] = None,
    *,
    track: Optional[str] = None,
    max_job_spans: Optional[int] = None,
) -> Tracer:
    """Build a deterministic trace from a finished stream simulation.

    Emits, on the simulated clock:

    * a run-level span covering ``[start_time, end_time]`` carrying the
      run counters,
    * one span per completed job (release date → completion), distributed
      over a fixed number of lanes for readable Perfetto rendering,
    * a queue-occupancy counter track from the recorded trajectory.

    ``max_job_spans`` caps the per-job spans (earliest completions kept)
    for very long streams; the cap is part of the trace content, so two
    runs with the same cap remain byte-identical.
    """
    out = tracer if tracer is not None else Tracer()
    base = track if track is not None else f"{result.label}/{result.policy}"
    out.complete(
        "stream",
        float(result.start_time),
        float(result.end_time - result.start_time),
        track=base,
        policy=result.policy,
        label=result.label,
        arrivals=int(result.arrivals),
        completions=int(result.completions),
        decisions=int(result.decisions),
        events=int(result.events),
        preemptions=int(result.preemptions),
        compactions=int(result.compactions),
        peak_active=int(result.peak_active),
        peak_window=int(result.peak_window),
        saturated=bool(result.saturated),
    )
    n_spans = len(result.completed_jobs)
    if max_job_spans is not None and n_spans > max_job_spans:
        n_spans = max_job_spans
    for i in range(n_spans):
        gid = int(result.completed_jobs[i])
        release = float(result.release_dates[i])
        flow = float(result.flows[i])
        out.complete(
            f"job-{gid}",
            release,
            flow,
            track=f"{base}/jobs-{gid % _JOB_LANES:02d}",
            stretch=float(result.stretches[i]),
            weighted_flow=float(result.weighted_flows[i]),
        )
    for t, q in zip(result.queue_times, result.queue_lengths):
        out.counter("queue", float(t), float(q), track=base)
    return out


def trace_campaign_records(records, tracer: Optional[Tracer] = None) -> Tracer:
    """Trace a batch campaign: one span per record, one lane per workload.

    Each :class:`~repro.analysis.campaign.CampaignRecord` becomes a
    ``[0, makespan]`` span on its workload's track, annotated with the
    record's metrics — deterministic because the records are.
    """
    out = tracer if tracer is not None else Tracer()
    for record in records:
        out.complete(
            record.policy,
            0.0,
            float(record.makespan),
            track=record.workload,
            max_stretch=float(record.max_stretch),
            max_weighted_flow=float(record.max_weighted_flow),
            normalised=float(record.normalised),
            preemptions=int(record.preemptions),
        )
    return out
