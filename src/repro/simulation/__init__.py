"""Discrete-event simulation of on-line scheduling policies (substrate S10).

The paper's conclusion reports "preliminary simulations" in which an on-line
adaptation of the off-line algorithm outperforms classical heuristics such as
Minimum Completion Time.  This subpackage provides the simulator used to
reproduce that claim (experiment E4 in DESIGN.md), and the rolling-horizon
runtime that runs the same policies over open-ended request streams.

One event loop serves both: :class:`StreamingSimulator`.

Public API
----------
:func:`simulate`
    Replay a finite instance through the event loop and obtain a validated
    schedule (see :mod:`repro.simulation.engine`).
:class:`SimulationResult`, :class:`EventRecord`
    Executed schedule, events, preemption counts and metrics.
:class:`SimulationState`, :class:`AllocationDecision`
    The engine/policy interface (see :mod:`repro.heuristics.base`).
:class:`StreamingSimulator`, :class:`StreamResult`
    The event loop over a :class:`~repro.workload.streams.WorkloadStream`
    and its streaming metrics (see :mod:`repro.simulation.stream`).
:class:`InstanceView`, :class:`StreamWindow`
    The loop's window storage and the zero-copy instance facade its
    policies see (see :mod:`repro.simulation.window`).
"""

from .engine import simulate
from .result import EventRecord, SimulationResult
from .state import AllocationDecision, MachineShare, SimulationState
from .stream import StreamingSimulator, StreamResult
from .window import InstanceView, StreamWindow

__all__ = [
    "AllocationDecision",
    "EventRecord",
    "InstanceView",
    "MachineShare",
    "SimulationResult",
    "SimulationState",
    "StreamResult",
    "StreamWindow",
    "StreamingSimulator",
    "simulate",
]
