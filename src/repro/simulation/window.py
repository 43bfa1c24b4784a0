"""Zero-copy event-loop window: preallocated slots and the policy-facing view.

The :class:`~repro.simulation.stream.StreamingSimulator` event loop never
hands a policy a freshly built :class:`~repro.core.instance.Instance`
(construction and validation are O(m·w) per event).  Instead:

* :class:`StreamWindow` owns the window's buffers — the cost block (a numpy
  array and its Python-float rows), the per-slot ``remaining`` fractions and
  per-slot metadata (job, global id, fastest cost, weight, release) — and
  mutates them in place: arrivals append into preallocated cost columns and
  the per-slot lists, compaction remaps the surviving slots.  Each per-slot
  scalar (fastest cost, weight, release, remaining fraction) has exactly
  one copy, a Python-float list.
* :class:`InstanceView` is a **zero-copy stand-in** for ``Instance`` over
  those buffers.  It satisfies the read surface the policies and the loop
  consume (``jobs``, ``machines``, ``costs``, ``cost``, ``min_cost``,
  ``num_jobs`` …) without ever constructing or re-validating anything: the
  ``costs`` property is a numpy view of the live slot block, ``jobs`` is the
  window's own slot list.  One view object persists for the whole run; the
  ``rebind``/``compact`` policy hooks signal the mutations.

Validation is *not* repeated per event — that is the point.  Arrivals are
validated where they are made (``Job.__post_init__``, the stream generators,
``Instance`` for finite replays), arrival order guarantees the release-date
sort invariant, and the byte-identity tests drive every registered policy
through both this view and the legacy rebuild path to prove the outputs
equal.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.machine import Machine
from ..workload.streams import ArrivalEvent

__all__ = ["InstanceView", "StreamWindow"]


class InstanceView:
    """Read-only ``Instance`` stand-in over a :class:`StreamWindow`'s buffers.

    The view aliases the window's live storage: no copy is made on access,
    and window mutations (admissions, compactions) are visible immediately.
    Policies receive the same view object across the whole run and are told
    about mutations through their ``rebind``/``compact`` hooks, exactly as
    they were told about freshly rebuilt instances before.
    """

    __slots__ = ("_window",)

    def __init__(self, window: "StreamWindow") -> None:
        self._window = window

    # -- identity ------------------------------------------------------- #
    @property
    def jobs(self) -> List[Job]:
        """Window jobs in slot order (live and not-yet-compacted dead slots)."""
        return self._window.jobs

    @property
    def machines(self) -> Tuple[Machine, ...]:
        return self._window.machines

    @property
    def costs(self) -> np.ndarray:
        """Zero-copy ``(m, width)`` view of the window's cost block."""
        window = self._window
        return window.costs_base[:, : len(window.jobs)]

    @property
    def costs_rows(self) -> List[List[float]]:
        """Per-machine cost rows as plain Python floats (scalar fast path)."""
        return self._window.costs_rows

    @property
    def job_lists(self) -> Tuple[List[float], List[float], List[float]]:
        """``(fastest costs, weights, release dates)`` as plain Python floats.

        The window's own lists, mutated in place (so references stay
        current); the same doubles :attr:`Instance.job_lists` gives for the
        materialised window.
        """
        window = self._window
        return (window.min_list, window.weight_list, window.release_list)

    @property
    def num_jobs(self) -> int:
        return len(self._window.jobs)

    @property
    def num_machines(self) -> int:
        return self._window.num_machines

    @property
    def release_dates(self) -> List[float]:
        return [job.release_date for job in self._window.jobs]

    @property
    def weights(self) -> List[float]:
        return [job.weight for job in self._window.jobs]

    # -- scalar accessors ------------------------------------------------ #
    def cost(self, machine_index: int, job_index: int) -> float:
        return float(self._window.costs_base[machine_index, job_index])

    def min_cost(self, job_index: int) -> float:
        return self._window.min_list[job_index]

    def job_index(self, name: str) -> int:
        for index, job in enumerate(self._window.jobs):
            if job.name == name:
                return index
        raise KeyError(f"no job named {name!r} in instance")

    def machine_index(self, name: str) -> int:
        for index, machine in enumerate(self._window.machines):
            if machine.name == name:
                return index
        raise KeyError(f"no machine named {name!r} in instance")

    # -- derived quantities ---------------------------------------------- #
    def aggregate_rate(self, job_index: int) -> float:
        column = self.costs[:, job_index]
        finite = np.isfinite(column)
        return float(np.sum(1.0 / column[finite]))

    def lower_bound_flow(self, job_index: int) -> float:
        return 1.0 / self.aggregate_rate(job_index)

    def trivial_upper_bound_flow(self) -> float:
        return self.materialise().trivial_upper_bound_flow()

    def describe(self) -> str:
        finite = np.isfinite(self.costs)
        restricted = int(np.sum(~finite))
        return (
            f"Instance with {self.num_jobs} jobs on {self.num_machines} machines "
            f"({restricted} forbidden job/machine pairs)"
        )

    # -- escape hatch ----------------------------------------------------- #
    def materialise(self) -> Instance:
        """A real, validated :class:`Instance` snapshot of the window.

        O(m·w): only for cold paths (serialisation, derived instances) —
        the hot loop never calls this.
        """
        return Instance(
            jobs=tuple(self._window.jobs),
            machines=self._window.machines,
            costs=self.costs.copy(),
        )

    def to_dict(self) -> Dict:
        return self.materialise().to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstanceView({self.num_jobs} jobs, {self.num_machines} machines)"


class StreamWindow:
    """The active window's storage: preallocated slots.

    Arrivals append into the next slot (amortised O(m): one cost-column
    write, a handful of list appends — no construction, no revalidation);
    compaction drops dead slots by remapping the survivors in place, one
    fancy-indexed copy for the cost block and one list rebuild per per-slot
    list.  The cost block's capacity doubles on demand; the lists are only
    ever mutated in place, so references to them survive growth and
    compaction.
    """

    def __init__(self, machines: Sequence[Machine]) -> None:
        self.machines: Tuple[Machine, ...] = tuple(machines)
        self.num_machines = len(self.machines)
        self.capacity = 0
        self.jobs: List[Job] = []  # window slot -> Job
        self.global_ids: List[int] = []  # window slot -> arrival index
        self.live: List[bool] = []
        self.costs_base = np.empty((self.num_machines, 0))
        #: Per-machine cost rows as plain Python floats (same bits as the
        #: ndarray block).  Scalar-heavy consumers — the assignment scan of
        #: the preemptive policies, the streaming advance arithmetic — read
        #: these to skip float64-boxing on every element access.  The inner
        #: lists are mutated in place (append / slice-assign) so references
        #: held across admissions and compactions stay valid.
        self.costs_rows: List[List[float]] = [[] for _ in range(self.num_machines)]
        #: Per-slot metadata and remaining work as Python floats, maintained
        #: the same way as ``costs_rows`` (appended on admit, remapped on
        #: compact, mutated in place).  ``remaining`` is the event loop's
        #: one copy of each job's remaining fraction
        #: (``SimulationState.remaining_list``).
        self.min_list: List[float] = []  # slot -> fastest processing time
        self.weight_list: List[float] = []  # slot -> job weight
        self.release_list: List[float] = []  # slot -> release date
        self.remaining: List[float] = []  # slot -> remaining fraction
        self.view = InstanceView(self)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.jobs)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_capacity = max(64, 2 * self.capacity, needed)
        width = len(self.jobs)
        grown = np.empty((self.num_machines, new_capacity))
        grown[:, :width] = self.costs_base[:, :width]
        self.costs_base = grown
        self.capacity = new_capacity

    def admit_batch(self, events: Sequence[ArrivalEvent]) -> int:
        """Append a batch of arrivals; returns the first slot used.

        The batch shares one capacity check — the admission half of batched
        event processing.
        """
        first = len(self.jobs)
        self._ensure_capacity(first + len(events))
        for offset, event in enumerate(events):
            self._fill_slot(first + offset, event)
        return first

    def _fill_slot(self, slot: int, event: ArrivalEvent) -> None:
        job = event.job
        self.jobs.append(job)
        self.global_ids.append(event.index)
        self.live.append(True)
        self.costs_base[:, slot] = event.costs
        column = event.costs.tolist()
        for machine_index, row in enumerate(self.costs_rows):
            row.append(column[machine_index])
        self.min_list.append(event.min_cost)
        self.weight_list.append(job.weight)
        self.release_list.append(job.release_date)
        self.remaining.append(1.0)

    def compact(self) -> Dict[int, int]:
        """Drop dead slots in place; returns the old→new mapping of survivors."""
        survivors = [slot for slot, alive in enumerate(self.live) if alive]
        mapping = {old: new for new, old in enumerate(survivors)}
        width = len(survivors)
        self.costs_base[:, :width] = self.costs_base[:, survivors]
        for row in self.costs_rows:
            row[:] = [row[slot] for slot in survivors]
        for values in (self.min_list, self.weight_list, self.release_list, self.remaining):
            values[:] = [values[slot] for slot in survivors]
        self.jobs = [self.jobs[slot] for slot in survivors]
        self.global_ids = [self.global_ids[slot] for slot in survivors]
        self.live = [True] * width
        return mapping
