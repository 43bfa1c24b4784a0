"""The event loop: rolling-horizon streams and finite-instance replays.

:class:`StreamingSimulator` is the discrete-event loop behind every on-line
simulation in the package.  It drives an
:class:`~repro.heuristics.base.OnlineScheduler` over a
:class:`~repro.workload.streams.WorkloadStream`: arrivals, completions,
requested wake-ups, exclusive and time-shared windows.  It runs in one of
two modes, chosen by the entry point:

* **Stream mode** (:meth:`StreamingSimulator.run`).  The simulator holds only
  the **active window** — jobs that have arrived and are not yet compacted
  out — so a 100k-arrival stream costs O(peak active jobs) state, not
  O(total arrivals).  No schedule is materialised (it would be O(total
  arrivals)); the :class:`StreamResult` carries per-completion metric series
  (flow, weighted flow, stretch) and the queue/busy-time aggregates the
  steady-state estimators consume.  A stream whose offered load exceeds what
  the policy can serve grows its queue without bound, so the run stops and
  is flagged *saturated* once the live-job count exceeds ``max_active``
  (:mod:`repro.analysis.steady_state` also detects sub-critical saturation
  from the queue-length trajectory).  A stall guard stops a policy that
  makes no progress: one that goes too many events without an admission,
  a completion or a window that reduces some job's remaining work.
* **Finite-instance mode** (:func:`repro.simulation.simulate`).  The loop
  replays a concrete :class:`~repro.core.instance.Instance` through
  :func:`~repro.workload.streams.replay_stream` and records the executed
  :class:`~repro.core.schedule.Schedule`, the event trace, completion times
  and preemptions (see :class:`ScheduleLog`).  The scheduler is reset with
  the full instance before the loop; the window is never compacted (slots
  stay instance indices), the run never saturates, every decision is
  validated, no per-job metric series is recorded and an event budget of
  ``50 n + 1000`` events replaces the stall guard.

The mode is the only switch: :meth:`StreamingSimulator._simulate` works out
every per-mode setting from whether it is handed a :class:`ScheduleLog`.

The zero-copy core
------------------
The loop never materialises a window :class:`~repro.core.instance.Instance`:

* The window lives in a :class:`~repro.simulation.window.StreamWindow`;
  policies see it through a zero-copy
  :class:`~repro.simulation.window.InstanceView`.  Arrivals append to the
  window's per-slot lists (no construction, no revalidation) and compaction
  gathers the survivors in place; the ``rebind``/``compact`` hooks tell the
  policy.
* Events are processed in batches between decision points: all due arrivals
  of an epoch are admitted as one batch, one
  :class:`~repro.simulation.state.SimulationState` is updated in place (no
  per-event state objects), and the per-decision rate/horizon/progress
  arithmetic touches only the slots the decision allocated.
* Each per-slot scalar has one copy, a Python-float list: the window owns
  the remaining fractions (``SimulationState.remaining_list``) and the
  slot metadata, the loop keeps the per-slot rates.  The advance
  arithmetic runs on them directly — the same IEEE-754 float64 operations
  a vector would do, without per-element boxing.  Every policy has one
  decision path, :meth:`~repro.heuristics.base.OnlineScheduler.decide`,
  and reads the remaining work through that list or the state's
  accessors.

Two frozen references pin the loop's output.  Finite-instance runs match
``benchmarks/_seed_engine.py`` piece for piece; stream runs match the
rebuild-per-arrival loop in ``tests/reference/stream_legacy.py``
(``run_rebuild``) over the full :meth:`StreamResult.fingerprint`:
completion series, counters (decisions included — batching removes
overhead *around* decision points, it never skips one), end time and busy
machine-seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..core.instance import Instance
from ..core.schedule import Schedule
from ..exceptions import SimulationError
from ..obs.clock import wall_clock
from ..obs.metrics import Recorder, get_recorder
from ..workload.streams import ArrivalEvent, WorkloadStream
from .result import EventRecord
from .state import AllocationDecision, SimulationState
from .window import StreamWindow

__all__ = ["StreamResult", "StreamingSimulator"]

#: Remaining fractions below this value are treated as "job finished".
_COMPLETION_DUST = 1e-9

#: Minimum positive time step; guards against infinite loops on degenerate decisions.
_MIN_STEP = 1e-12

#: A share at least this large counts as exclusive use of the machine.
_EXCLUSIVE_SHARE = 1.0 - 1e-9

#: Minimum number of dead slots before a compaction is considered.
_COMPACT_MIN = 8

#: Queue-trajectory samples are decimated beyond this many points.
_TRAJECTORY_CAP = 4096


@dataclass
class StreamResult:
    """Outcome of one rolling-horizon simulation.

    Attributes
    ----------
    policy:
        Name of the policy that drove the stream.
    label:
        Stream label (from the spec, or ``"trace"``).
    arrivals, completions:
        Jobs admitted and jobs finished (equal unless the run saturated).
    saturated:
        ``True`` when the live-job count exceeded the simulator's
        ``max_active`` cap and the run was cut short.
    peak_active, peak_window:
        Maximum simultaneous live jobs, and maximum window size (live plus
        not-yet-compacted dead slots).  ``peak_window`` is bounded by
        ``2 * peak_active + O(1)`` by the compaction rule — the O(active)
        memory guarantee the acceptance tests assert.
    compactions, preemptions, decisions, events:
        Window compactions, interrupted exclusive runs, policy invocations
        and loop iterations.
    start_time, end_time:
        First arrival time and the time of the last processed event.
    busy_machine_seconds:
        Total allocated machine time (the utilisation numerator).
    num_machines:
        Platform size (the utilisation denominator, with the time span).
    completed_jobs, flows, weighted_flows, stretches, release_dates:
        Per-completion series in completion order: global arrival index,
        flow ``C_j - r_j``, weighted flow, stretch (flow over the job's
        fastest processing time) and release date.
    queue_times, queue_lengths:
        Decimated (time, live jobs) trajectory sampled at arrivals.
    elapsed_seconds:
        Wall-clock time of the simulation.
    """

    policy: str
    label: str
    arrivals: int = 0
    completions: int = 0
    saturated: bool = False
    peak_active: int = 0
    peak_window: int = 0
    compactions: int = 0
    preemptions: int = 0
    decisions: int = 0
    events: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    busy_machine_seconds: float = 0.0
    num_machines: int = 0
    completed_jobs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    flows: np.ndarray = field(default_factory=lambda: np.empty(0))
    weighted_flows: np.ndarray = field(default_factory=lambda: np.empty(0))
    stretches: np.ndarray = field(default_factory=lambda: np.empty(0))
    release_dates: np.ndarray = field(default_factory=lambda: np.empty(0))
    queue_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    queue_lengths: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def utilisation(self) -> float:
        """Fraction of the platform's machine-time actually allocated."""
        span = (self.end_time - self.start_time) * self.num_machines
        return self.busy_machine_seconds / span if span > 0 else 0.0

    @property
    def arrivals_per_second(self) -> float:
        """Simulation throughput in admitted arrivals per wall-clock second."""
        return self.arrivals / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def max_stretch(self) -> float:
        """Maximum stretch over all completed jobs."""
        return float(self.stretches.max()) if self.stretches.size else 0.0

    @property
    def mean_stretch(self) -> float:
        """Mean stretch over all completed jobs."""
        return float(self.stretches.mean()) if self.stretches.size else 0.0

    def fingerprint(self) -> str:
        """Hex digest of the run's deterministic content.

        Covers the completion series and the headline counters — everything
        except wall-clock timings — so two runs of the same
        :class:`~repro.workload.streams.StreamSpec` can be asserted
        byte-identical.
        """
        import hashlib

        digest = hashlib.sha256()
        for array in (
            self.completed_jobs,
            self.flows,
            self.weighted_flows,
            self.stretches,
            self.release_dates,
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(
            repr(
                (
                    self.arrivals,
                    self.completions,
                    self.saturated,
                    self.peak_active,
                    self.peak_window,
                    self.compactions,
                    self.preemptions,
                    self.decisions,
                    self.end_time,
                    self.busy_machine_seconds,
                )
            ).encode()
        )
        return digest.hexdigest()


class ScheduleLog:
    """What a finite-instance run records beyond the stream counters.

    The executed :class:`~repro.core.schedule.Schedule`, the event trace and
    the completion times.  A machine running one job at full share keeps one
    *open* piece (start time, accumulated fraction) that grows across
    consecutive windows for as long as the loop's ``running`` entry for that
    machine lasts.  It is flushed when the entry goes: on preemption, when
    the machine starts a time-shared window, on completion (machines in
    index order) and at the end.  Time-shared windows are laid out
    sequentially and emitted at once.  Pieces therefore land in the schedule
    in the seed engine's order.
    """

    __slots__ = ("instance", "schedule", "events", "completion_times", "_open")

    def __init__(self, instance: Instance, divisible: bool) -> None:
        self.instance = instance
        self.schedule = Schedule(instance=instance, divisible=divisible)
        start = instance.jobs[0].release_date if instance.num_jobs else 0.0
        self.events: List[EventRecord] = [EventRecord(time=start, kind="start")]
        self.completion_times: Dict[int, float] = {}
        #: machine -> [start, accumulated fraction] of its open exclusive piece
        self._open: Dict[int, List[float]] = {}

    def advance(
        self,
        shares: Dict[int, List],
        time: float,
        span: float,
        running: Dict[int, int],
        rows: List[List[float]],
    ) -> None:
        """Record one decision window of ``span`` seconds from ``time``.

        Called before the loop applies the window, so ``running`` still
        holds each machine's previous exclusive job.  The fractions are the
        loop's own ``share * span / cost`` doubles.
        """
        for machine_index, share_list in shares.items():
            row = rows[machine_index]
            if len(share_list) == 1 and share_list[0][1] >= _EXCLUSIVE_SHARE:
                progressed = span / row[share_list[0][0]]
                piece = self._open.get(machine_index)
                if piece is None:
                    self._open[machine_index] = [time, progressed]
                else:
                    piece[1] += progressed
                continue
            job_index = running.get(machine_index)
            if job_index is not None:
                self.flush(machine_index, job_index)
            cursor = time
            for job_index, share in share_list:
                progressed = share * span / row[job_index]
                if progressed <= 0:
                    continue
                duration = share * span
                self.schedule.add_piece(job_index, machine_index, cursor, cursor + duration, progressed)
                cursor += duration

    def flush(self, machine_index: int, job_index: int) -> None:
        """Close the machine's open piece of ``job_index``, if any."""
        piece = self._open.pop(machine_index, None)
        if piece is None:
            return
        start, fraction = piece
        if fraction > _COMPLETION_DUST:
            duration = fraction * self.instance.cost(machine_index, job_index)
            self.schedule.add_piece(job_index, machine_index, start, start + duration, fraction)


class StreamingSimulator:
    """The event loop: drives an on-line policy over a workload stream.

    :meth:`run` is stream mode; :func:`repro.simulation.simulate` drives the
    same loop in finite-instance mode (see the module docstring).  The
    parameters configure stream mode only.

    Parameters
    ----------
    max_active:
        Saturation cap: the run stops (flagged ``saturated``) once more than
        this many jobs are live at once.
    compact_min:
        Minimum number of dead slots before a compaction fires (the window
        compacts when dead slots reach ``max(compact_min, live slots)``, so
        it never exceeds ``2 × peak live + compact_min``).  The default is
        right for production; tests lower it to exercise compaction timing.
    recorder:
        Metrics sink for the run's ``stream.*`` counters (the process
        default when ``None``).
    """

    def __init__(
        self,
        *,
        max_active: int = 10_000,
        compact_min: int = _COMPACT_MIN,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if max_active < 1:
            raise SimulationError("max_active must be at least 1")
        if compact_min < 1:
            raise SimulationError("compact_min must be at least 1")
        self.max_active = max_active
        self.compact_min = compact_min
        # Metrics are injected (or resolved from the process default at run
        # time); instrumented code never constructs a concrete recorder —
        # the obs-recorder-default lint rule enforces this.
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    def run(
        self,
        stream: WorkloadStream,
        scheduler,
        *,
        max_arrivals: Optional[int] = None,
    ) -> StreamResult:
        """Drive ``scheduler`` over ``stream`` and collect streaming metrics.

        Parameters
        ----------
        stream:
            The workload stream (open-ended streams need ``max_arrivals``).
        scheduler:
            An :class:`~repro.heuristics.base.OnlineScheduler` (resolve one
            with :func:`repro.heuristics.make_scheduler`).
        max_arrivals:
            Stop admitting after this many arrivals and drain the queue.
            Required for streams without a finite :attr:`WorkloadStream.length`.

        Decisions are not validated (that costs O(window) Python work per
        event; finite-instance runs validate every decision).
        """
        if max_arrivals is None and stream.length is None:
            raise SimulationError(
                "an open-ended stream needs max_arrivals (or a finite trace stream)"
            )
        recorder = self.recorder if self.recorder is not None else get_recorder()
        result = self._simulate(
            stream,
            scheduler,
            budget=max_arrivals if max_arrivals is not None else math.inf,
            recorder=recorder,
        )
        self._record_result(recorder, result)
        return result

    def _simulate(
        self,
        stream: WorkloadStream,
        scheduler,
        *,
        budget: float,
        recorder: Recorder,
        log: Optional[ScheduleLog] = None,
    ) -> StreamResult:
        """The event loop.  ``log`` selects finite-instance mode.

        In that mode the caller has already reset ``scheduler`` with the full
        instance (so the first admission is a ``rebind``) and ``log``
        records the schedule and events; the loop validates every decision,
        never compacts or saturates, records no per-job series and raises
        once it exceeds ``50 n + 1000`` events.  Stream mode takes
        ``max_active`` and ``compact_min`` from the simulator, records the
        per-completion series and has the stall guard instead.
        """
        label = stream.spec.label if stream.spec is not None else "trace"
        result = StreamResult(
            policy=getattr(scheduler, "name", scheduler.__class__.__name__),
            label=label,
            num_machines=stream.num_machines,
        )
        started = wall_clock()

        window = StreamWindow(stream.machines)
        view = window.view
        arrivals: Iterator[ArrivalEvent] = stream.jobs()
        pending: Optional[ArrivalEvent] = next(arrivals, None)
        if pending is None:
            result.elapsed_seconds = wall_clock() - started
            return result

        decide = scheduler.decide
        rebind = getattr(scheduler, "rebind", None)

        active: List[int] = []  # sorted live window indices
        running: Dict[int, int] = {}  # machine -> exclusively running window slot
        time = pending.job.release_date
        result.start_time = time
        end_time = time

        flows: List[float] = []
        weighted: List[float] = []
        stretches: List[float] = []
        finished_ids: List[int] = []
        releases: List[float] = []
        queue_times: List[float] = []
        queue_lengths: List[int] = []
        sample_stride = 1

        # Stable references: the window mutates these lists in place.
        rows = window.costs_rows
        remaining = window.remaining
        #: Per-slot rates as Python floats (bit-identical to float64 vector
        #: arithmetic), loop-local.
        rate_list: List[float] = []

        # One policy-facing snapshot for the whole run, updated in place.
        state = SimulationState(
            instance=view,  # type: ignore[arg-type] — duck-typed zero-copy view
            time=time,
            next_arrival=None,
            active=active,
            remaining_list=remaining,
        )

        finite = log is not None
        reset_done = finite
        pending_compact = False
        stall_events = 0
        #: Window slots whose rate entries the previous decision set — the
        #: only entries that can be non-zero, so the next decision clears
        #: just these instead of the whole window.
        touched: List[int] = []
        due: List[ArrivalEvent] = []

        peak_active = 0
        peak_window = 0
        # Hot counters stay in locals; they land back on the result after
        # the loop (and are lost on an exception, like the legacy loop).
        n_events = 0
        n_arrivals = 0
        n_decisions = 0
        n_completions = 0
        n_preemptions = 0
        n_compactions = 0
        busy = 0.0
        saturated = False
        if finite:
            max_active_cap = compact_min = math.inf
            max_events = 50 * log.instance.num_jobs + 1000
        else:
            max_active_cap = self.max_active
            compact_min = self.compact_min
            max_events = math.inf
        # Hoisted once: under the NullRecorder default the loop pays one
        # dead boolean test per admission batch — the zero-overhead
        # contract benchmarks/bench_obs_overhead.py asserts.
        observe_batches = recorder.enabled

        while True:
            n_events += 1
            if n_events > max_events:
                raise SimulationError(
                    f"simulation exceeded the event budget ({max_events}); "
                    f"policy {result.policy!r} may be cycling"
                )
            progressed_this_event = False

            # ---- admit due arrivals (batched) ----------------------------
            window_changed = False
            if pending is not None and n_arrivals < budget:
                threshold = time + 1e-12
                if pending.job.release_date <= threshold:
                    live_before = len(active)
                    while (
                        pending is not None
                        and n_arrivals < budget
                        and pending.job.release_date <= threshold
                    ):
                        due.append(pending)
                        n_arrivals += 1
                        if n_arrivals % sample_stride == 0:
                            queue_times.append(pending.job.release_date)
                            queue_lengths.append(live_before + len(due))
                            if len(queue_times) > _TRAJECTORY_CAP:
                                queue_times = queue_times[::2]
                                queue_lengths = queue_lengths[::2]
                                sample_stride *= 2
                        pending = next(arrivals, None)
                    first_slot = window.admit_batch(due)
                    count = len(due)
                    if observe_batches:
                        recorder.observe("stream.batch_size", float(count))
                    if finite:
                        log.events.extend(
                            EventRecord(time=time, kind="arrival", job_index=slot)
                            for slot in range(first_slot, first_slot + count)
                        )
                    active.extend(range(first_slot, first_slot + count))
                    rate_list.extend([0.0] * count)
                    due.clear()
                    window_changed = True
                    progressed_this_event = True
            if n_arrivals >= budget:
                pending = None

            active_count = len(active)
            if active_count > peak_active:
                peak_active = active_count
            if len(window.jobs) > peak_window:
                peak_window = len(window.jobs)
            if active_count > max_active_cap:
                saturated = True
                end_time = time
                break

            if window_changed:
                # Zero-copy: the view already spans the grown window.
                if not reset_done:
                    if hasattr(scheduler, "reset"):
                        scheduler.reset(view)
                    reset_done = True
                elif pending_compact:
                    scheduler.compact(view, {})
                    pending_compact = False
                elif rebind is not None:
                    rebind(view)

            next_arrival = pending.job.release_date if pending is not None else None

            if not active:
                if next_arrival is None:
                    end_time = time
                    break  # drained
                time = next_arrival
                continue

            # ---- one decision window -------------------------------------
            state.time = time
            state.next_arrival = next_arrival
            decision: AllocationDecision = decide(state)
            n_decisions += 1
            if finite:
                decision.validate(state)

            shares = decision.shares
            horizon = next_arrival if next_arrival is not None else math.inf
            if decision.wake_up_at is not None:
                horizon = min(horizon, max(decision.wake_up_at, time + _MIN_STEP))

            # Clear last window's rate entries, apply this decision's shares,
            # bound the horizon by the earliest projected completion —
            # touching only allocated slots, with plain Python-float
            # arithmetic throughout (the same IEEE-754 float64 operations
            # the vector held).
            for job_index in touched:
                rate_list[job_index] = 0.0
            del touched[:]
            exclusive_only = decision.all_exclusive
            if exclusive_only:
                # exclusive_allocation guarantees one full (job, 1.0)
                # share per machine, so the per-share bookkeeping
                # collapses: the share literal is 1.0 and summing one
                # 1.0 per machine equals float(len(shares)) exactly —
                # the generic loop's arithmetic, bit for bit.
                total_share = float(len(shares))
                for machine_index, share_list in shares.items():
                    job_index = share_list[0][0]
                    rate_list[job_index] += 1.0 / rows[machine_index][job_index]
                    touched.append(job_index)
            else:
                total_share = 0.0
                flat = []
                for machine_index, share_list in shares.items():
                    row = rows[machine_index]
                    exclusive = (
                        len(share_list) == 1 and share_list[0][1] >= _EXCLUSIVE_SHARE
                    )
                    for job_index, share in share_list:
                        rate_list[job_index] += share / row[job_index]
                        total_share += share
                        touched.append(job_index)
                        flat.append((machine_index, job_index, share, exclusive))
            for job_index in touched:
                job_rate = rate_list[job_index]
                if job_rate > 0.0:
                    candidate = time + remaining[job_index] / job_rate
                    if candidate < horizon:
                        horizon = candidate

            if horizon == math.inf:
                raise SimulationError(
                    f"policy {result.policy!r} left active jobs unscheduled "
                    f"with no future arrival (window of {len(active)} live jobs)"
                )
            window_span = max(horizon - time, 0.0)

            # Preemptions: an exclusive (machine, job) run no longer allocated
            # although the job is unfinished.
            if running:
                if exclusive_only:
                    # One (job, 1.0) share per assigned machine: compare
                    # the machine's share with its running job directly.
                    stopped = []
                    for machine_index, job_index in running.items():
                        share_list = shares.get(machine_index)
                        if share_list is None or share_list[0][0] != job_index:
                            stopped.append((machine_index, job_index))
                else:
                    assigned_now = {
                        (machine_index, job_index)
                        for machine_index, share_list in shares.items()
                        for job_index, _ in share_list
                    }
                    stopped = [pair for pair in running.items() if pair not in assigned_now]
                for machine_index, job_index in stopped:
                    if remaining[job_index] > _COMPLETION_DUST:
                        n_preemptions += 1
                    del running[machine_index]
                    if finite:
                        log.flush(machine_index, job_index)

            if window_span > 0:
                busy += window_span * total_share
                if finite:
                    log.advance(shares, time, window_span, running, rows)
                # ``value`` is below ``before`` exactly when the window
                # reduced the job's work (``before`` is never negative, so
                # the clamp only applies then).
                if exclusive_only:
                    for machine_index, share_list in shares.items():
                        job_index = share_list[0][0]
                        running[machine_index] = job_index
                        before = remaining[job_index]
                        value = before - window_span / rows[machine_index][job_index]
                        if value < before:
                            progressed_this_event = True
                            if value < 0.0:
                                value = 0.0
                        remaining[job_index] = value
                else:
                    for machine_index, job_index, share, exclusive in flat:
                        if exclusive:
                            running[machine_index] = job_index
                            progressed = window_span / rows[machine_index][job_index]
                        else:
                            running.pop(machine_index, None)
                            progressed = (
                                share * window_span / rows[machine_index][job_index]
                            )
                            if progressed <= 0:
                                continue
                        before = remaining[job_index]
                        value = before - progressed
                        if value < before:
                            progressed_this_event = True
                            if value < 0.0:
                                value = 0.0
                        remaining[job_index] = value
                time = horizon
            else:
                # Degenerate zero-width window.  A job whose projected
                # completion rounds to ``time`` has less work left than the
                # clock resolves at ``time``: no window can ever progress
                # it, so it completes now.  Otherwise every active job still
                # has remaining work above the completion dust (completions
                # are drained eagerly each event and admissions start at
                # 1.0), so snap to the next real event.
                unresolvable = False
                for job_index in touched:
                    job_rate = rate_list[job_index]
                    if job_rate > 0.0 and time + remaining[job_index] / job_rate <= time:
                        remaining[job_index] = 0.0
                        unresolvable = True
                if not unresolvable:
                    time = next_arrival if next_arrival is not None else time + _MIN_STEP

            # ---- completions: only allocated slots can cross the dust
            # threshold; process them in ascending window index, exactly
            # like a full-window scan.
            completed_now = [
                job_index
                for job_index in touched
                if remaining[job_index] <= _COMPLETION_DUST
            ]
            if completed_now:
                progressed_this_event = True
                if len(completed_now) > 1:
                    completed_now = sorted(set(completed_now))
                for job_index in completed_now:
                    remaining[job_index] = 0.0
                    window.live[job_index] = False
                    active.remove(job_index)
                    freed = [m for m, j in running.items() if j == job_index]
                    for machine_index in freed:
                        del running[machine_index]
                    n_completions += 1
                    if finite:
                        for machine_index in sorted(freed):
                            log.flush(machine_index, job_index)
                        log.completion_times[job_index] = time
                        log.events.append(
                            EventRecord(time=time, kind="completion", job_index=job_index)
                        )
                    else:
                        job = window.jobs[job_index]
                        flow = time - job.release_date
                        flows.append(flow)
                        weighted.append(job.weight * flow)
                        stretches.append(flow / window.min_list[job_index])
                        finished_ids.append(window.global_ids[job_index])
                        releases.append(job.release_date)
            if time > end_time:
                end_time = time

            # ---- compaction ----------------------------------------------
            dead = len(window.jobs) - len(active)
            if dead >= compact_min and dead >= len(active):
                mapping = window.compact()
                # The survivors are the sorted live slots, renumbered from 0.
                active[:] = range(len(active))
                running = {
                    machine: mapping[idx]
                    for machine, idx in running.items()
                    if idx in mapping
                }
                # compact() remapped every slot index; no rate is live
                # across the remap.
                del touched[:]
                rate_list = [0.0] * len(window.jobs)
                if len(window.jobs) > 0:
                    scheduler.compact(view, mapping)
                else:
                    # Fully drained: notify the policy at the next
                    # admission (its index-keyed state is entirely stale
                    # by then).
                    pending_compact = True
                n_compactions += 1

            # ---- stall guard (finite runs have the event budget) ---------
            # Progress is an admission, a completion or a window that
            # reduced some job's remaining work; the clock advancing alone
            # is not.
            if progressed_this_event:
                stall_events = 0
            elif not finite:
                stall_events += 1
                if stall_events > 50 * (len(window.jobs) + 10):
                    raise SimulationError(
                        f"policy {result.policy!r} made no progress for "
                        f"{stall_events} events; it may be cycling"
                    )

        if finite:
            for machine_index, job_index in running.items():
                log.flush(machine_index, job_index)
        result.arrivals = n_arrivals
        result.completions = n_completions
        result.saturated = saturated
        result.compactions = n_compactions
        result.preemptions = n_preemptions
        result.decisions = n_decisions
        result.events = n_events
        result.end_time = end_time
        result.busy_machine_seconds = busy
        result.peak_active = peak_active
        result.peak_window = peak_window
        result.elapsed_seconds = wall_clock() - started
        if not finite:
            result.completed_jobs = np.asarray(finished_ids, dtype=np.int64)
            result.flows = np.asarray(flows)
            result.weighted_flows = np.asarray(weighted)
            result.stretches = np.asarray(stretches)
            result.release_dates = np.asarray(releases)
        result.queue_times = np.asarray(queue_times)
        result.queue_lengths = np.asarray(queue_lengths, dtype=np.int64)
        return result

    @staticmethod
    def _record_result(recorder: Recorder, result: StreamResult) -> None:
        """Emit the run's aggregate counters: O(1) calls per run, after the
        hot loop, so the instrumented path is the measured path."""
        if not recorder.enabled:
            return
        recorder.count("stream.runs")
        recorder.count("stream.events", float(result.events))
        recorder.count("stream.arrivals", float(result.arrivals))
        recorder.count("stream.decisions", float(result.decisions))
        recorder.count("stream.completions", float(result.completions))
        recorder.count("stream.preemptions", float(result.preemptions))
        recorder.count("stream.compactions", float(result.compactions))
        if result.saturated:
            recorder.count("stream.saturated_runs")
        recorder.gauge("stream.peak_active", float(result.peak_active))
        recorder.gauge("stream.peak_window", float(result.peak_window))
