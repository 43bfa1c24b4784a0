"""Frozen legacy streaming loop: the rebuild-per-arrival reference.

This module preserves, essentially verbatim, the original
:class:`~repro.simulation.stream.StreamingSimulator` event loop in which the
active window materialised a fresh, fully-validated
:class:`~repro.core.instance.Instance` on every arrival and compaction
(``_Window.rebuild_instance``).  It plays the same role for the zero-copy
streaming core that ``benchmarks/_seed_engine.py`` plays for the batch
kernel: a full-fidelity reference whose outputs the fast path must match
byte for byte.

Do not optimise this file.  Tests and benches call :func:`run_rebuild`
directly (it is not reachable from the production API) and exercise it in:

* the per-policy byte-identity tests (view path vs rebuild path, at every
  compaction timing, and through trace replays);
* ``benchmarks/bench_streaming.py``, which measures the view path's
  speedup *against this loop* and asserts the ratio.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.core.job import Job
from repro.exceptions import SimulationError
from repro.obs.clock import wall_clock
from repro.simulation.state import AllocationDecision, JobProgress, SimulationState
from repro.simulation.stream import _COMPLETION_DUST, _EXCLUSIVE_SHARE, _MIN_STEP
from repro.workload.streams import ArrivalEvent, WorkloadStream

__all__ = ["run_rebuild"]


class _Window:
    """The active window: slots, vectors and the policy-facing instance."""

    def __init__(self, machines: Tuple) -> None:
        self.machines = machines
        self.num_machines = len(machines)
        self.capacity = 0
        self.jobs: List[Job] = []  # window slot -> Job
        self.global_ids: List[int] = []  # window slot -> arrival index
        self.min_costs: List[float] = []  # window slot -> fastest processing time
        self.live: List[bool] = []
        self.costs = np.empty((self.num_machines, 0))
        self.remaining: Optional[np.ndarray] = None
        self.rate: Optional[np.ndarray] = None
        self.mirrors: List = []
        self.instance: Optional[Instance] = None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.jobs)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_capacity = max(64, 2 * self.capacity, needed)
        width = len(self.jobs)
        saved_remaining = self.remaining[:width].copy() if self.remaining is not None else None
        remaining = np.ones(new_capacity)
        rate = np.zeros(new_capacity)
        mirrors = [JobProgress(job_index=slot) for slot in range(new_capacity)]
        grown = np.empty((self.num_machines, new_capacity))
        grown[:, :width] = self.costs[:, :width]
        self.costs = grown
        if saved_remaining is not None:
            remaining[:width] = saved_remaining
        self.remaining = remaining
        self.rate = rate
        self.mirrors = mirrors
        # The mirrors are fresh; restore the live window's state.
        for slot in range(width):
            mirror = mirrors[slot]
            mirror.arrived = True
            mirror.remaining_fraction = float(remaining[slot])
            mirror.completion_time = None if self.live[slot] else 0.0
        self.capacity = new_capacity

    def admit(self, event: ArrivalEvent) -> int:
        """Append one arrival; returns its window index."""
        slot = len(self.jobs)
        self._ensure_capacity(slot + 1)
        self.jobs.append(event.job)
        self.global_ids.append(event.index)
        self.min_costs.append(event.min_cost)
        self.live.append(True)
        self.costs[:, slot] = event.costs
        self.remaining[slot] = 1.0
        self.rate[slot] = 0.0
        mirror = self.mirrors[slot]
        mirror.arrived = True
        mirror.remaining_fraction = 1.0
        mirror.completion_time = None
        return slot

    def rebuild_instance(self) -> Instance:
        """Materialise the policy-facing instance of the current window."""
        width = len(self.jobs)
        self.instance = Instance(
            jobs=tuple(self.jobs),
            machines=self.machines,
            costs=self.costs[:, :width],
        )
        return self.instance

    def dead_count(self) -> int:
        return sum(1 for alive in self.live if not alive)

    def compact(self) -> Dict[int, int]:
        """Drop dead slots; returns the old→new mapping of survivors."""
        survivors = [slot for slot, alive in enumerate(self.live) if alive]
        mapping = {old: new for new, old in enumerate(survivors)}
        width = len(survivors)
        self.costs[:, :width] = self.costs[:, survivors]
        self.remaining[:width] = self.remaining[survivors]
        self.rate[:width] = 0.0
        self.jobs = [self.jobs[slot] for slot in survivors]
        self.global_ids = [self.global_ids[slot] for slot in survivors]
        self.min_costs = [self.min_costs[slot] for slot in survivors]
        self.live = [True] * width
        for new in range(width):
            mirror = self.mirrors[new]
            mirror.arrived = True
            mirror.remaining_fraction = float(self.remaining[new])
            mirror.completion_time = None
        return mapping


def run_rebuild(
    simulator,
    stream: WorkloadStream,
    scheduler,
    *,
    max_arrivals: Optional[int] = None,
    record_jobs: bool = True,
):
    """Drive ``scheduler`` over ``stream`` with the legacy rebuild loop.

    ``simulator`` supplies the configuration (``max_active``,
    ``validate_decisions``, ``compact_min``) and the loop returns the same
    :class:`~repro.simulation.stream.StreamResult` as the view path —
    byte-identical fingerprints included.
    """
    from repro.simulation.stream import StreamResult, _TRAJECTORY_CAP

    if max_arrivals is None and stream.length is None:
        raise SimulationError(
            "an open-ended stream needs max_arrivals (or a finite trace stream)"
        )
    label = stream.spec.label if stream.spec is not None else "trace"
    result = StreamResult(
        policy=getattr(scheduler, "name", scheduler.__class__.__name__),
        label=label,
        num_machines=stream.num_machines,
    )
    started = wall_clock()

    window = _Window(stream.machines)
    arrivals: Iterator[ArrivalEvent] = stream.jobs()
    pending: Optional[ArrivalEvent] = next(arrivals, None)
    if pending is None:
        result.elapsed_seconds = wall_clock() - started
        return result
    budget = max_arrivals if max_arrivals is not None else math.inf

    array_mode = bool(getattr(scheduler, "array_aware", False))
    decide_fn = scheduler.decide_arrays if array_mode else scheduler.decide

    active: List[int] = []  # sorted live window indices
    running: Dict[int, int] = {}  # machine -> exclusively running window slot
    time = pending.job.release_date
    result.start_time = time
    result.end_time = time

    flows: List[float] = []
    weighted: List[float] = []
    stretches: List[float] = []
    finished_ids: List[int] = []
    releases: List[float] = []
    queue_times: List[float] = []
    queue_lengths: List[int] = []
    sample_stride = 1

    state: Optional[SimulationState] = None
    reset_done = False
    pending_compact = False
    stall_events = 0

    def bind_state() -> SimulationState:
        width = len(window)
        return SimulationState(
            instance=window.instance,
            time=time,
            jobs=window.mirrors[:width],
            next_arrival=None,
            active=active,
            remaining_vector=window.remaining[:width],
        )

    while True:
        result.events += 1
        progressed_this_event = False
        time_before = time

        # ---- admit due arrivals --------------------------------------
        window_changed = False
        while (
            pending is not None
            and result.arrivals < budget
            and pending.job.release_date <= time + 1e-12
        ):
            slot = window.admit(pending)
            insort(active, slot)
            result.arrivals += 1
            window_changed = True
            progressed_this_event = True
            if result.arrivals % sample_stride == 0:
                queue_times.append(pending.job.release_date)
                queue_lengths.append(len(active))
                if len(queue_times) > _TRAJECTORY_CAP:
                    queue_times = queue_times[::2]
                    queue_lengths = queue_lengths[::2]
                    sample_stride *= 2
            pending = next(arrivals, None)
        if result.arrivals >= budget:
            pending = None

        result.peak_active = max(result.peak_active, len(active))
        result.peak_window = max(result.peak_window, len(window))
        if len(active) > simulator.max_active:
            result.saturated = True
            result.end_time = time
            break

        if window_changed:
            window.rebuild_instance()
            if not reset_done:
                if hasattr(scheduler, "reset"):
                    scheduler.reset(window.instance)
                reset_done = True
            elif pending_compact:
                scheduler.compact(window.instance, {})
                pending_compact = False
            else:
                scheduler.rebind(window.instance)
            state = bind_state()

        next_arrival = pending.job.release_date if pending is not None else None

        if not active:
            if next_arrival is None:
                result.end_time = time
                break  # drained
            time = next_arrival
            continue

        # ---- one decision window (kernel semantics) ------------------
        state.time = time
        state.next_arrival = next_arrival
        decision: AllocationDecision = decide_fn(state)
        result.decisions += 1
        if simulator.validate_decisions:
            decision.validate(state)

        remaining = window.remaining
        rate = window.rate
        width = len(window)
        rate[:width] = 0.0
        pair_jobs: List[int] = []
        pair_contrib: List[float] = []
        total_share = 0.0
        for machine_index, share_list in decision.shares.items():
            for job_index, share in share_list:
                pair_jobs.append(job_index)
                pair_contrib.append(share / window.costs[machine_index, job_index])
                total_share += share
        if pair_jobs:
            np.add.at(rate, pair_jobs, pair_contrib)

        horizon = math.inf
        if next_arrival is not None:
            horizon = min(horizon, next_arrival)
        if decision.wake_up_at is not None:
            horizon = min(horizon, max(decision.wake_up_at, time + _MIN_STEP))
        rate_view = rate[:width]
        running_jobs = np.nonzero(rate_view > 0.0)[0]
        if running_jobs.size:
            horizon = min(
                horizon,
                float(np.min(time + remaining[running_jobs] / rate_view[running_jobs])),
            )
        if math.isinf(horizon):
            raise SimulationError(
                f"policy {result.policy!r} left active jobs unscheduled "
                f"with no future arrival (window of {len(active)} live jobs)"
            )
        window_span = max(horizon - time, 0.0)

        # Preemptions: an exclusive (machine, job) run no longer allocated
        # although the job is unfinished — the kernel's open-piece rule.
        assigned_now = {
            (machine_index, job_index)
            for machine_index, share_list in decision.shares.items()
            for job_index, _ in share_list
        }
        for machine_index in list(running):
            job_index = running[machine_index]
            if (machine_index, job_index) not in assigned_now:
                if remaining[job_index] > _COMPLETION_DUST:
                    result.preemptions += 1
                del running[machine_index]

        if window_span > 0:
            result.busy_machine_seconds += window_span * total_share
            for machine_index, share_list in decision.shares.items():
                exclusive = (
                    len(share_list) == 1 and share_list[0][1] >= _EXCLUSIVE_SHARE
                )
                if exclusive:
                    job_index, _share = share_list[0]
                    running[machine_index] = job_index
                    progressed = window_span / window.costs[machine_index, job_index]
                    value = max(0.0, remaining[job_index] - progressed)
                    remaining[job_index] = value
                    if not array_mode:
                        window.mirrors[job_index].remaining_fraction = value
                else:
                    running.pop(machine_index, None)
                    for job_index, share in share_list:
                        progressed = (
                            share * window_span / window.costs[machine_index, job_index]
                        )
                        if progressed <= 0:
                            continue
                        value = max(0.0, remaining[job_index] - progressed)
                        remaining[job_index] = value
                        if not array_mode:
                            window.mirrors[job_index].remaining_fraction = value
            time = horizon
        elif not bool(np.any(remaining[active] <= _COMPLETION_DUST)):
            # Degenerate zero-width window with nothing completing now:
            # snap to the next real event (kernel semantics).
            time = next_arrival if next_arrival is not None else time + _MIN_STEP

        # ---- completions (ascending window index) --------------------
        active_arr = np.asarray(active, dtype=np.intp)
        completed_now = active_arr[remaining[active_arr] <= _COMPLETION_DUST]
        for job_index in completed_now:
            job_index = int(job_index)
            remaining[job_index] = 0.0
            mirror = window.mirrors[job_index]
            mirror.remaining_fraction = 0.0
            mirror.completion_time = time
            window.live[job_index] = False
            active.remove(job_index)
            for machine_index in [
                m for m, j in running.items() if j == job_index
            ]:
                del running[machine_index]
            result.completions += 1
            progressed_this_event = True
            if record_jobs:
                job = window.jobs[job_index]
                flow = time - job.release_date
                flows.append(flow)
                weighted.append(job.weight * flow)
                stretches.append(flow / window.min_costs[job_index])
                finished_ids.append(window.global_ids[job_index])
                releases.append(job.release_date)
        result.end_time = max(result.end_time, time)

        # ---- compaction ----------------------------------------------
        dead = len(window) - len(active)
        if dead >= max(simulator.compact_min, len(active)):
            mapping = window.compact()
            active = sorted(mapping[idx] for idx in active)
            running = {
                machine: mapping[idx]
                for machine, idx in running.items()
                if idx in mapping
            }
            if len(window) > 0:
                window.rebuild_instance()
                scheduler.compact(window.instance, mapping)
                state = bind_state()
            else:
                # Fully drained: the window is empty and an Instance
                # cannot be; notify the policy at the next admission
                # (its index-keyed state is entirely stale by then).
                pending_compact = True
            result.compactions += 1

        # ---- cycling guard -------------------------------------------
        if progressed_this_event or time > time_before:
            stall_events = 0
        else:
            stall_events += 1
            if stall_events > 50 * (len(window) + 10):
                raise SimulationError(
                    f"policy {result.policy!r} made no progress for "
                    f"{stall_events} events; it may be cycling"
                )

    result.elapsed_seconds = wall_clock() - started
    if record_jobs:
        result.completed_jobs = np.asarray(finished_ids, dtype=np.int64)
        result.flows = np.asarray(flows)
        result.weighted_flows = np.asarray(weighted)
        result.stretches = np.asarray(stretches)
        result.release_dates = np.asarray(releases)
    result.queue_times = np.asarray(queue_times)
    result.queue_lengths = np.asarray(queue_lengths, dtype=np.int64)
    return result
