"""Frozen copy of the seed discrete-event engine (pre-array-backed kernel).

This module is a reference implementation kept **only** for
``bench_engine_regression.py`` and its tier-1 smoke twin:
:func:`repro.simulation.simulate` (the event loop's finite-instance mode)
must stay byte-for-byte compatible with — and at least as fast as — this
engine.  Do not import it from library code.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.simulation.result import EventRecord, SimulationResult
from repro.simulation.state import AllocationDecision, SimulationState

__all__ = ["simulate"]

#: Remaining fractions below this value are treated as "job finished".
_COMPLETION_DUST = 1e-9

#: Minimum positive time step; guards against infinite loops on degenerate decisions.
_MIN_STEP = 1e-12

#: A share at least this large counts as exclusive use of the machine.
_EXCLUSIVE_SHARE = 1.0 - 1e-9


def simulate(instance: Instance, scheduler) -> SimulationResult:
    """Simulate ``scheduler`` on ``instance`` and return the executed schedule.

    Every allocation returned by the policy is validated before it is
    applied, and the run may take at most ``50 * n + 1000`` events.

    Parameters
    ----------
    instance:
        The scheduling instance; release dates drive the arrival events.
    scheduler:
        An object implementing the :class:`repro.heuristics.base.OnlineScheduler`
        protocol (``name``, ``divisible`` and ``decide(state)``).

    Raises
    ------
    SimulationError
        If the policy returns an invalid allocation or the simulation does
        not terminate within the event budget.
    """
    n = instance.num_jobs
    max_events = 50 * n + 1000

    # Per-job dynamic state; ``remaining`` is updated in place and bound to
    # every state as its ``remaining_list``.
    remaining = [1.0] * n
    arrived = [False] * n
    completion_times: List[Optional[float]] = [None] * n
    arrivals: List[Tuple[float, int]] = sorted(
        (job.release_date, j) for j, job in enumerate(instance.jobs)
    )
    next_arrival_pos = 0

    time = arrivals[0][0] if arrivals else 0.0
    schedule = Schedule(instance=instance, divisible=getattr(scheduler, "divisible", True))
    events: List[EventRecord] = [EventRecord(time=time, kind="start")]
    num_calls = 0
    num_preemptions = 0

    # Open exclusive pieces: (machine, job) -> (start time, accumulated fraction).
    open_pieces: Dict[Tuple[int, int], Tuple[float, float]] = {}

    if hasattr(scheduler, "reset"):
        scheduler.reset(instance)

    def flush_piece(machine_index: int, job_index: int) -> None:
        """Close the open exclusive piece of (machine, job), if any."""
        key = (machine_index, job_index)
        if key not in open_pieces:
            return
        start, fraction = open_pieces.pop(key)
        if fraction > _COMPLETION_DUST:
            duration = fraction * instance.cost(machine_index, job_index)
            schedule.add_piece(job_index, machine_index, start, start + duration, fraction)

    def flush_machine(machine_index: int) -> None:
        """Close every open piece on a machine."""
        for m, j in list(open_pieces.keys()):
            if m == machine_index:
                flush_piece(m, j)

    event_count = 0
    while True:
        event_count += 1
        if event_count > max_events:
            raise SimulationError(
                f"simulation exceeded the event budget ({max_events}); "
                f"policy {getattr(scheduler, 'name', scheduler)!r} may be cycling"
            )

        # Mark arrivals at the current time.
        while next_arrival_pos < len(arrivals) and arrivals[next_arrival_pos][0] <= time + 1e-12:
            _, job_index = arrivals[next_arrival_pos]
            arrived[job_index] = True
            events.append(EventRecord(time=time, kind="arrival", job_index=job_index))
            next_arrival_pos += 1

        next_arrival = arrivals[next_arrival_pos][0] if next_arrival_pos < len(arrivals) else None

        active = [j for j in range(n) if arrived[j] and completion_times[j] is None]
        state = SimulationState(
            instance=instance,
            time=time,
            next_arrival=next_arrival,
            active=active,
            remaining_list=remaining,
        )

        if not active:
            if next_arrival is None:
                break  # every job has completed
            time = next_arrival
            continue

        decision: AllocationDecision = scheduler.decide(state)
        num_calls += 1
        decision.validate(state)

        rates = decision.job_rates(state)

        # Horizon: next arrival, earliest completion, requested wake-up.
        horizon = math.inf
        if next_arrival is not None:
            horizon = min(horizon, next_arrival)
        if decision.wake_up_at is not None:
            horizon = min(horizon, max(decision.wake_up_at, time + _MIN_STEP))
        for job_index, rate in rates.items():
            if rate > 0:
                horizon = min(horizon, time + remaining[job_index] / rate)

        if math.isinf(horizon):
            raise SimulationError(
                f"policy {getattr(scheduler, 'name', scheduler)!r} left active jobs "
                f"{active} unscheduled with no future arrival"
            )

        window = max(horizon - time, 0.0)

        # Count preemptions: a previously running (machine, job) pair that is
        # no longer allocated although the job is unfinished.
        assigned_now = {
            (machine_index, job_index)
            for machine_index, share_list in decision.shares.items()
            for job_index, _ in share_list
        }
        for machine_index, job_index in list(open_pieces.keys()):
            if (machine_index, job_index) not in assigned_now:
                still_unfinished = remaining[job_index] > _COMPLETION_DUST
                flush_piece(machine_index, job_index)
                if still_unfinished:
                    num_preemptions += 1

        if window > 0:
            for machine_index, share_list in decision.shares.items():
                exclusive = (
                    len(share_list) == 1 and share_list[0][1] >= _EXCLUSIVE_SHARE
                )
                if exclusive:
                    job_index, _share = share_list[0]
                    progressed = window / instance.cost(machine_index, job_index)
                    key = (machine_index, job_index)
                    if key in open_pieces:
                        start, fraction = open_pieces[key]
                        open_pieces[key] = (start, fraction + progressed)
                    else:
                        open_pieces[key] = (time, progressed)
                    remaining[job_index] = max(0.0, remaining[job_index] - progressed)
                else:
                    # Time-shared window: realise the shares sequentially.
                    flush_machine(machine_index)
                    cursor = time
                    for job_index, share in share_list:
                        progressed = share * window / instance.cost(machine_index, job_index)
                        if progressed <= 0:
                            continue
                        duration = share * window
                        schedule.add_piece(
                            job_index, machine_index, cursor, cursor + duration, progressed
                        )
                        cursor += duration
                        remaining[job_index] = max(0.0, remaining[job_index] - progressed)

        if window > 0:
            # Snap exactly to the event time.  Advancing by `time + window`
            # re-rounds the subtraction `horizon - time` and drifts the clock
            # by one ulp per event, so completion times and event records no
            # longer coincide with the release dates that caused them.
            time = horizon
        elif all(remaining[j] > _COMPLETION_DUST for j in active):
            # Degenerate zero-width window with nothing completing right now:
            # snap to the next real event instead of accumulating _MIN_STEP
            # dust.  (When a completion is pending it fires below at the
            # current, exact time.)
            time = next_arrival if next_arrival is not None else time + _MIN_STEP

        # Completions.
        for job_index in active:
            if completion_times[job_index] is None and remaining[job_index] <= _COMPLETION_DUST:
                remaining[job_index] = 0.0
                completion_times[job_index] = time
                events.append(EventRecord(time=time, kind="completion", job_index=job_index))
                for machine_index in range(instance.num_machines):
                    flush_piece(machine_index, job_index)

    # Close any remaining open pieces (there should be none, but be safe).
    for machine_index, job_index in list(open_pieces.keys()):
        flush_piece(machine_index, job_index)

    unfinished = [j for j in range(n) if completion_times[j] is None]
    if unfinished:
        raise SimulationError(
            f"simulation ended with unfinished jobs: {[instance.jobs[j].name for j in unfinished]}"
        )

    return SimulationResult(
        scheduler_name=getattr(scheduler, "name", scheduler.__class__.__name__),
        schedule=schedule.compact(),
        events=events,
        num_scheduler_calls=num_calls,
        num_preemptions=num_preemptions,
        completion_times={j: completion_times[j] for j in range(n)},
    )
