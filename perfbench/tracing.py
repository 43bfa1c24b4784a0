"""Span tracing around the repro layers, from the benchmark's side only.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` keeps
spans ``(name, start, end, parent)`` in memory; :func:`instrumented`
temporarily replaces the public entry points of each layer with forwarding
wrappers that open a span around the call, and :class:`SchedulerProxy` /
:func:`traced_stream` wrap the two objects a simulation is handed (the
on-line policy and the arrival stream).  A layer is the first component of
a span name (``lp.solve`` belongs to ``lp``); its self time is the time its
spans cover minus the time covered by their child spans.  The benchmark's
own host-speed ticks are taken out of the spans they interrupt
(:meth:`Tracer.pause`).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int]

#: Scheduler hooks and the span each call is recorded under.
_SCHEDULER_SPANS = {
    "decide": "heuristics.decide",
    "decide_arrays": "heuristics.decide",
    "reset": "heuristics.compact",
    "rebind": "heuristics.compact",
    "compact": "heuristics.compact",
}


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        #: Seconds each span (by index) spent paused; see :meth:`pause`.
        self.paused: Dict[int, float] = {}
        self.paused_s = 0.0

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        spans = self.spans
        stack = self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def pause(self, seconds: float) -> None:
        """Take ``seconds`` of the benchmark's own work, done while the
        current spans were open, out of their durations."""
        paused = self.paused
        for index in self._stack:
            paused[index] = paused.get(index, 0.0) + seconds
        self.paused_s += seconds

    def _duration(self, index: int) -> float:
        _name, start, end, _parent = self.spans[index]
        return end - start - self.paused.get(index, 0.0)

    def _self_seconds(self) -> List[float]:
        """Self seconds of each span: its duration minus its children's."""
        spans = self.spans
        own = [self._duration(index) for index in range(len(spans))]
        self_s = list(own)
        for index, (_name, _start, _end, parent) in enumerate(spans):
            if parent >= 0:
                self_s[parent] -= own[index]
        return self_s

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name."""
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self._self_seconds()):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def root_self_time(self) -> float:
        """Self seconds of the outermost spans (each timed unit's entry point)."""
        return sum(
            seconds for span, seconds in zip(self.spans, self._self_seconds()) if span[3] < 0
        )

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations (seconds) of every span called ``name``."""
        return np.array(
            [self._duration(index) for index, span in enumerate(self.spans) if span[0] == name]
        )

    def write(self, path) -> None:
        """Dump the spans as tab-separated ``name start_ns end_ns parent`` lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    f"{name}\t{round((start - origin) * 1e9)}\t"
                    f"{round((end - origin) * 1e9)}\t{parent}\n"
                )


class SchedulerProxy:
    """Forwards every attribute to an on-line scheduler; the decision and
    remap hooks run inside ``heuristics.*`` spans."""

    def __init__(self, inner, tracer: Tracer) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        span = _SCHEDULER_SPANS.get(name)
        if span is None:
            return attr
        call = self._tracer.call

        def traced(*args, **kwargs):
            return call(span, attr, *args, **kwargs)

        # Cache the wrapper so the hot decide path skips __getattr__.
        object.__setattr__(self, name, traced)
        return traced


class _TimedArrivals:
    """Iterator over a stream's arrivals; each draw is a ``workload.gen`` span."""

    def __init__(self, arrivals: Iterator, tracer: Tracer) -> None:
        self._next = arrivals.__next__
        self._call = tracer.call

    def __iter__(self):
        return self

    def __next__(self):
        return self._call("workload.gen", self._next)


def traced_stream(stream, tracer: Tracer):
    """A copy of a ``WorkloadStream`` whose arrivals are drawn inside spans."""
    from repro.workload.streams import WorkloadStream

    return WorkloadStream(
        stream.machines,
        lambda _machines: _TimedArrivals(stream.jobs(), tracer),
        spec=stream.spec,
        length=stream.length,
    )


def _span_method(tracer: Tracer, name: str, method: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, method, *args, **kwargs)

    return traced


def _lp_entry(tracer: Tracer, fn: Callable) -> Callable:
    """An LP solve entry point inside an ``lp.solve`` span, counting pivots
    and warm starts from what the solver returns."""

    def traced(*args, **kwargs):
        result = tracer.call("lp.solve", fn, *args, **kwargs)
        solution = getattr(result, "solution", result)
        tracer.count("lp.pivots", float(solution.iterations or 0))
        if getattr(result, "warm_used", False):
            tracer.count("lp.warm_hits")
        return result

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch each layer's public entry points with span wrappers, then undo.

    LP solvers are patched where ``repro.core.replanning`` and
    ``repro.core.maxflow`` bind them, so every solve the probes issue is
    seen whichever backend they use.
    """
    from repro.analysis.campaign import WorkloadSpec
    from repro.core import maxflow, replanning
    from repro.heuristics.registry import OfflineOptimalPolicy, OnlinePolicy
    from repro.obs.journal import RunJournal
    from repro.store.store import BulkWriter, ExperimentStore

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attrs: Tuple[str, ...], name: str) -> None:
        for attr in attrs:
            patch(owner, attr, _span_method(tracer, name, getattr(owner, attr)))

    for module in (replanning, maxflow):
        for attr in ("solve_matrix_form_revised", "_scipy_solve_form"):
            patch(module, attr, _lp_entry(tracer, getattr(module, attr)))
    span(replanning.ReplanProbe, ("check",), "core.probe_check")
    span(OfflineOptimalPolicy, ("run",), "core.offline_search")
    span(WorkloadSpec, ("materialise",), "workload.gen")
    span(ExperimentStore, ("__init__", "begin_run", "finish_run", "close"), "store.write")
    span(ExperimentStore, ("lookup",), "store.lookup")
    span(BulkWriter, ("add", "flush", "close"), "store.write")
    span(RunJournal, ("__init__", "close"), "obs.journal")

    probe = maxflow.FeasibilityProbe.probe

    def counted_probe(self, objective):
        tracer.count("core.feasibility_checks")
        return probe(self, objective)

    patch(maxflow.FeasibilityProbe, "probe", counted_probe)

    online_run = OnlinePolicy.run

    def traced_online_run(self, instance, **kwargs):
        inner = self.scheduler
        self.scheduler = SchedulerProxy(inner, tracer)
        try:
            return tracer.call("simulation.run", online_run, self, instance, **kwargs)
        finally:
            self.scheduler = inner

    patch(OnlinePolicy, "run", traced_online_run)

    record = RunJournal.record

    def traced_record(self, event, **fields):
        tracer.count("obs.journal_events")
        return tracer.call("obs.journal", record, self, event, **fields)

    patch(RunJournal, "record", traced_record)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
