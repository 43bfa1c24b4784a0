"""Finite-instance simulation: replay an instance through the event loop.

:func:`simulate` replays an off-line instance *on line*: jobs become visible
to the policy only at their release dates, exactly as in the paper's
"preliminary simulations" (Section 5) where the on-line adaptation of the
off-line algorithm is compared against Minimum Completion Time.

There is one event loop, :class:`~repro.simulation.stream.StreamingSimulator`.
:func:`simulate` drives it over :func:`~repro.workload.streams.replay_stream`
in its finite-instance mode:

1. The policy is reset with the full instance.  Each batch of arrivals is
   then admitted into the window (a ``rebind``), and the policy is invoked
   with the current :class:`~repro.simulation.state.SimulationState`.  It
   returns an :class:`~repro.simulation.state.AllocationDecision`.
2. The loop computes when the next event occurs under those shares (the
   earliest of: next arrival, earliest job completion, requested wake-up),
   advances every allocated job's remaining fraction to that time and
   records the completions.

Executed work is recorded as regular :class:`~repro.core.schedule.SchedulePiece`
objects so simulation results validate and measure exactly like off-line
optima (see :class:`~repro.simulation.stream.ScheduleLog`):

* a machine running a *single* job at full share keeps one open piece that
  grows across consecutive windows (the common case for MCT, FIFO, SPT, SRPT
  and the plan-following policy);
* a machine that time-shares several jobs during a window has the window laid
  out sequentially (the standard realisation of a divisible allocation), which
  keeps machine timelines overlap-free.

The output equals the seed engine's piece for piece
(``benchmarks/_seed_engine.py``; ``benchmarks/bench_engine_regression.py``
and the tier-1 smoke twin pin it for every registered policy).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Union

from ..core.instance import Instance
from ..obs.metrics import NULL_RECORDER, get_recorder
from ..workload.streams import replay_stream
from .result import SimulationResult
from .stream import ScheduleLog, StreamingSimulator

__all__ = ["simulate", "simulate_many"]


def simulate(
    instance: Instance,
    scheduler,
    *,
    validate_decisions: bool = True,
    max_events: Optional[int] = None,
) -> SimulationResult:
    """Simulate ``scheduler`` on ``instance`` and return the executed schedule.

    Parameters
    ----------
    instance:
        The scheduling instance; release dates drive the arrival events.
    scheduler:
        An object implementing the :class:`repro.heuristics.base.OnlineScheduler`
        protocol (``name``, ``divisible`` and ``decide(state)``).
    validate_decisions:
        When ``True`` (default) every allocation returned by the policy is
        checked before being applied; disable only in benchmarks where the
        policy is already trusted.
    max_events:
        Safety cap on the number of processed events; defaults to
        ``50 * n + 1000``.

    Raises
    ------
    SimulationError
        If the policy returns an invalid allocation or the simulation does
        not terminate within the event budget.
    """
    num_jobs = instance.num_jobs
    if max_events is None:
        max_events = 50 * num_jobs + 1000
    log = ScheduleLog(instance, divisible=getattr(scheduler, "divisible", True))
    if hasattr(scheduler, "reset"):
        scheduler.reset(instance)
    # Never saturate, never compact: window slots stay instance indices.
    simulator = StreamingSimulator(
        max_active=math.inf, validate_decisions=validate_decisions, compact_min=math.inf
    )
    run = simulator._simulate(
        replay_stream(instance),
        scheduler,
        budget=math.inf,
        record_jobs=False,
        recorder=NULL_RECORDER,
        log=log,
        max_events=max_events,
    )

    # Aggregate instrumentation after the loop: O(1) recorder calls per run.
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("kernel.runs")
        recorder.count("kernel.decisions", float(run.decisions))
        recorder.count("kernel.preemptions", float(run.preemptions))
        recorder.observe("kernel.jobs", float(num_jobs))

    return SimulationResult(
        scheduler_name=run.policy,
        schedule=log.schedule.compact(),
        events=log.events,
        num_scheduler_calls=run.decisions,
        num_preemptions=run.preemptions,
        completion_times={j: log.completion_times[j] for j in range(num_jobs)},
    )


def simulate_many(
    instances: Iterable[Instance],
    scheduler: Union[object, Callable[[], object]],
    *,
    validate_decisions: bool = True,
    max_events: Optional[int] = None,
) -> List[SimulationResult]:
    """Simulate one policy over many instances (e.g. one scenario over seeds).

    ``scheduler`` is either a scheduler object (its ``reset`` hook is invoked
    before every run) or a zero-argument factory returning a fresh scheduler
    per instance (anything callable without a ``decide`` attribute).
    ``validate_decisions`` and ``max_events`` are forwarded to every run.
    """
    is_factory = callable(scheduler) and not hasattr(scheduler, "decide")
    return [
        simulate(
            instance,
            scheduler() if is_factory else scheduler,
            validate_decisions=validate_decisions,
            max_events=max_events,
        )
        for instance in instances
    ]
