"""Zero-copy event-loop window: per-slot lists and the policy-facing view.

The :class:`~repro.simulation.stream.StreamingSimulator` event loop never
hands a policy a freshly built :class:`~repro.core.instance.Instance`
(construction and validation are O(m·w) per event).  Instead:

* :class:`StreamWindow` owns the window's storage — the per-machine cost
  rows, each slot's machine preference order, the per-slot ``remaining``
  fractions and per-slot metadata (job, global id, fastest cost, weight,
  release) — and mutates it in place: arrivals append to every list,
  compaction gathers the surviving slots.  Every per-slot quantity has
  exactly one copy, a Python list (costs included: there is no numpy cost
  block to keep in step).
* :class:`InstanceView` is a **zero-copy stand-in** for ``Instance`` over
  those lists.  It satisfies the read surface the policies and the loop
  consume (``jobs``, ``machines``, ``cost``, ``min_cost``, ``job_lists``,
  ``machine_orders``, ``num_jobs`` …) without constructing or re-validating
  anything; ``jobs`` is the window's own slot list.  Only ``costs`` (the
  numpy block) is derived: it is built from the rows on each read.  Its
  readers are cold — ``materialise``, ``describe``, ``aggregate_rate``; the
  policies read ``cost()``, and the LP-backed ones build their
  sub-instances through it.  One view object persists for the whole run;
  the ``rebind``/``compact`` policy hooks signal the mutations.

Validation is *not* repeated per event — that is the point.  Arrivals are
validated where they are made (``Job.__post_init__``, the stream generators,
``Instance`` for finite replays), arrival order guarantees the release-date
sort invariant, and the byte-identity tests drive every registered policy
through both this view and the legacy rebuild path to prove the outputs
equal.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.instance import Instance, machine_order
from ..core.job import Job
from ..core.machine import Machine
from ..workload.streams import ArrivalEvent

__all__ = ["InstanceView", "StreamWindow"]


class InstanceView:
    """Read-only ``Instance`` stand-in over a :class:`StreamWindow`'s lists.

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
        """``(m, width)`` cost array of the window, built from the rows.

        A fresh array on each read (O(m·w)); no decision path reads it.
        """
        window = self._window
        return np.array(window.costs_rows, dtype=float).reshape(
            window.num_machines, len(window.jobs)
        )

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
    def machine_orders(self) -> List[List[int]]:
        """Per-slot machine preference orders (see :attr:`Instance.machine_orders`).

        The window's own list, recorded at admission and gathered on
        compaction.
        """
        return self._window.orders

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
        return self._window.costs_rows[machine_index][job_index]

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


def _gather(survivors: List[int]) -> Callable[[Sequence], Sequence]:
    """A function picking ``survivors`` (ascending slots) out of a per-slot list."""
    if len(survivors) > 1:
        return itemgetter(*survivors)
    return lambda values: [values[slot] for slot in survivors]


class StreamWindow:
    """The active window's storage: one Python list per per-slot quantity.

    An arrival appends to every list (O(m): one cost per machine row plus
    the slot's machine preference order — no construction, no
    revalidation); compaction drops dead slots by gathering the survivors
    of each list with one ``itemgetter``.  The lists are only ever mutated
    in place (append / slice-assign), so references held across admissions
    and compactions — the event loop binds ``costs_rows`` and ``remaining``
    once per run — stay valid.
    """

    def __init__(self, machines: Sequence[Machine]) -> None:
        self.machines: Tuple[Machine, ...] = tuple(machines)
        self.num_machines = len(self.machines)
        self.jobs: List[Job] = []  # window slot -> Job
        self.global_ids: List[int] = []  # window slot -> arrival index
        self.live: List[bool] = []
        #: Per-machine cost rows as plain Python floats: the window's one
        #: copy of the costs.  Scalar-heavy consumers — the streaming
        #: advance arithmetic, ``InstanceView.cost`` — read them without
        #: float64 boxing.
        self.costs_rows: List[List[float]] = [[] for _ in range(self.num_machines)]
        #: Per-slot machine preference orders: the machines able to run the
        #: slot's job, fastest first, lowest index first on ties.
        self.orders: List[List[int]] = []
        #: Per-slot metadata and remaining work as Python floats, maintained
        #: the same way as ``costs_rows`` (appended on admit, gathered on
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

    def admit_batch(self, events: Sequence[ArrivalEvent]) -> int:
        """Append a batch of arrivals; returns the first slot used.

        The admission half of batched event processing.
        """
        first = len(self.jobs)
        for event in events:
            job = event.job
            column = event.costs
            self.jobs.append(job)
            self.global_ids.append(event.index)
            self.live.append(True)
            for row, cost in zip(self.costs_rows, column):
                row.append(cost)
            self.orders.append(machine_order(column))
            self.min_list.append(event.min_cost)
            self.weight_list.append(job.weight)
            self.release_list.append(job.release_date)
            self.remaining.append(1.0)
        return first

    def compact(self) -> Dict[int, int]:
        """Drop dead slots in place; returns the old→new mapping of survivors.

        The survivors keep their relative order, so the live slots are
        exactly ``0 … len(survivors) - 1`` afterwards.
        """
        survivors = [slot for slot, alive in enumerate(self.live) if alive]
        gather = _gather(survivors)
        for values in (
            *self.costs_rows,
            self.orders,
            self.min_list,
            self.weight_list,
            self.release_list,
            self.remaining,
            self.jobs,
            self.global_ids,
        ):
            values[:] = gather(values)
        self.live = [True] * len(survivors)
        return {old: new for new, old in enumerate(survivors)}
