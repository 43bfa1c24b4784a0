"""The cell executor under the campaign and stream-sweep drivers.

A driver cuts its sweep into :class:`Cell` objects, each a picklable task
for a module-level ``run_cell`` function, and :func:`execute_cells` does
the rest.  It opens and seals the store run, plans resume with one store
lookup per round, and runs cells in-process or on a bounded process pool.
It emits records in cell order and folds each cell's metrics snapshot at
emission, so records, store rows and merged snapshots are identical at
any worker count.  It also writes every journal event.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..exceptions import WorkloadError
from ..obs.clock import wall_clock
from ..obs.journal import RunJournal
from ..obs.metrics import collecting, get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import would cycle)
    from ..store import ExperimentStore

__all__ = ["Cell", "CellResult", "RunTotals", "execute_cells"]

#: Cells planned per store-lookup round on the in-process path (the pool
#: path rounds by its in-flight budget instead).
PLAN_BATCH = 64


@dataclass(eq=False)
class Cell:
    """One dispatch unit of a driver.

    ``task`` is the argument of ``run_cell``; the driver's ``plan`` sets it
    to ``None`` when the store already holds the cell's outputs.
    ``labels`` are the fields of the cell's journal events and ``size`` the
    records they count (computed ones when dispatched, all when skipped).
    ``lookups`` are the digests resume planning fetches.  ``waits_on`` is a
    dependency key: the first cell of a key computes, later ones wait for
    the value its result publishes.  ``data`` is driver state; ``index``
    the emission position, set by the executor.
    """

    task: Any
    labels: Dict[str, object]
    size: int = 1
    lookups: Tuple[str, ...] = ()
    waits_on: Optional[Hashable] = None
    data: Any = None
    index: int = -1


@dataclass
class CellResult:
    """``run_cell``'s value plus the telemetry of the run that produced it."""

    value: Any
    snapshot: Optional[Dict[str, Dict[str, object]]]
    worker: str
    elapsed: float


@dataclass
class RunTotals:
    """What the executor measured, handed to the driver's ``finish`` hook."""

    store_run_id: Optional[int] = None
    elapsed: float = 0.0
    inserted: int = 0
    peak_in_flight: int = 0
    peak_pending: int = 0


def _execute(run_cell: Callable[[Any], Any], task: Any, collect: bool) -> CellResult:
    """Run one cell, under a scoped recorder when ``collect`` is set.

    Module-level so the process pool can pickle it; the in-process path
    calls it too.  The snapshot derives from simulation counters only, so
    it is identical wherever the cell runs.
    """
    started = wall_clock()
    snapshot = None
    if collect:
        with collecting() as recorder:
            value = run_cell(task)
        snapshot = recorder.snapshot()
    else:
        value = run_cell(task)
    return CellResult(value, snapshot, f"p{os.getpid()}", wall_clock() - started)


def execute_cells(
    cells: Iterable[Cell],
    run_cell: Callable[[Any], Any],
    *,
    plan: Callable[[Cell, Mapping[str, Any]], None],
    emit: Callable[[Cell, Optional[CellResult]], Iterable[Tuple[Any, str, Any, Dict]]],
    finish: Callable[[RunTotals], Dict],
    kind: str,
    run_labels: Tuple[str, str],
    meta: Dict[str, object],
    config: Dict[str, object],
    timer: str,
    gauge: Optional[str] = None,
    publish: Callable[[Any], Any] = lambda value: None,
    bind: Callable[[Any, Any], Any] = lambda task, value: task,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    journal: Optional[Union[str, Path, RunJournal]] = None,
    max_workers: Optional[int] = None,
    max_inflight: Optional[int] = None,
    total: Optional[int] = None,
    collect_metrics: bool = False,
) -> Iterator[Any]:
    """Run ``cells`` and yield their records in cell order.

    Parameters
    ----------
    cells, run_cell:
        The lazy cell sequence and the module-level function computing one
        cell's ``task``.
    plan:
        ``plan(cell, found)`` shrinks a cell to the work the store lacks,
        given the stored records of the round's lookup (resume only).
    emit:
        ``emit(cell, result)`` yields ``(record, digest, row, fields)``:
        the record to yield and the store row ``writer.add(digest, row,
        **fields)`` persists.  ``result`` is ``None`` for a skipped cell.
    finish:
        Fills the driver's stats from :class:`RunTotals` and returns the
        dict the store run is sealed with.
    kind, run_labels, meta, config:
        Journal run kind, ``(store run label, journal run label)``, store
        run meta and journal run config (the executor adds ``workers`` and
        ``store_run_id``).
    timer, gauge:
        Histogram observing each computed cell's wall time, and the gauge
        tracking the pool's in-flight count.
    publish, bind:
        ``publish(value)`` extracts what a cell's result publishes for its
        ``waits_on`` key; ``bind(task, published)`` applies it to a waiting
        cell's task.
    store, resume, journal:
        Store sink (a path opens and closes one), resume mode, run journal
        (a path opens and closes one).
    max_workers, max_inflight, total:
        ``None`` runs in-process; otherwise a pool of ``max_workers``
        (``0``: one per CPU, never more than ``total`` cells) with at most
        ``max_inflight`` (default 4 × workers) cells submitted but not yet
        emitted.
    collect_metrics:
        Snapshot every computed cell's metrics even without a recorder to
        fold them into.
    """
    workers = 1
    cap = 1
    if max_workers is not None:
        workers = max_workers if max_workers > 0 else (os.cpu_count() or 1)
        if total is not None:
            # The pool spawns every worker eagerly; fork no more processes
            # than there are cells.
            workers = max(1, min(workers, total))
        cap = max_inflight if max_inflight is not None else 4 * workers
        if cap < 1:
            raise WorkloadError("max_inflight must be at least 1")

    from ..store import ExperimentStore  # deferred: repro.store imports the drivers

    recorder = get_recorder()
    # With a fold-capable ambient recorder every computed cell runs under a
    # scoped recorder, in-process ones too, and is folded at emission.
    merge = getattr(recorder, "merge_snapshot", None) if recorder.enabled else None
    collect = collect_metrics or merge is not None
    totals = RunTotals()
    cells = iter(cells)
    own_store: Optional[ExperimentStore] = None
    own_journal: Optional[RunJournal] = None
    writer = None
    pool: Optional[ProcessPoolExecutor] = None
    published: Dict[Hashable, Any] = {}
    heartbeats: Dict[str, int] = {}
    emitted = 0
    commits = 0
    completed = False
    start = wall_clock()

    def record(event: str, cell: Cell, **fields: object) -> None:
        if journal is not None:
            journal.record(event, **cell.labels, **fields)

    def planned(batch: List[Cell]) -> List[Cell]:
        if resume and store is not None:
            wanted = {digest for cell in batch for digest in cell.lookups}
            found = store.lookup(wanted) if wanted else {}
            for cell in batch:
                plan(cell, found)
        return batch

    def task_of(cell: Cell) -> Any:
        if cell.waits_on in published:
            return bind(cell.task, published[cell.waits_on])
        return cell.task

    def finished(cell: Cell, result: CellResult) -> None:
        record(
            "cell-completed",
            cell,
            cells=cell.size,
            elapsed=result.elapsed,
            worker=result.worker,
        )
        if cell.waits_on is not None and cell.waits_on not in published:
            published[cell.waits_on] = publish(result.value)

    def emit_cell(cell: Cell, result: Optional[CellResult]) -> Iterator[Any]:
        nonlocal emitted, commits
        if result is not None:
            if recorder.enabled:
                recorder.observe(timer, result.elapsed)
            if merge is not None and result.snapshot is not None:
                merge(result.snapshot)
        for value, digest, row, fields in emit(cell, result):
            emitted += 1
            if writer is not None:
                writer.add(digest, row, **fields)
                if journal is not None and writer.commits > commits:
                    commits = writer.commits
                    journal.record("batch-commit", commits=commits, records=emitted)
            yield value

    try:
        if store is not None:
            if not isinstance(store, ExperimentStore):
                store = own_store = ExperimentStore(store)
            totals.store_run_id = store.begin_run(run_labels[0], meta=meta)
            writer = store.writer(totals.store_run_id)
        if journal is not None:
            if not isinstance(journal, RunJournal):
                journal = own_journal = RunJournal(journal)
            config = dict(config, workers=workers)
            if totals.store_run_id is not None:
                config["store_run_id"] = totals.store_run_id
            journal.begin_run(kind, run_labels[1], config)

        if max_workers is None:
            while True:
                batch = planned(list(itertools.islice(cells, PLAN_BATCH)))
                if not batch:
                    break
                for cell in batch:
                    result = None
                    if cell.task is None:
                        record("cell-skipped", cell, cells=cell.size)
                    else:
                        record("cell-dispatched", cell)
                        result = _execute(run_cell, task_of(cell), collect)
                        finished(cell, result)
                    yield from emit_cell(cell, result)
            completed = True
            return

        pending: Dict[Any, Cell] = {}  # future -> cell
        #: Finished or skipped cells waiting for their emission turn.
        ready: Dict[int, Tuple[Cell, Optional[CellResult]]] = {}
        #: Keys whose first cell is in flight -> the cells waiting on it.
        deferred: Dict[Hashable, List[Cell]] = {}
        release: Deque[Cell] = deque()
        admitted = 0
        next_emit = 0
        exhausted = False

        def submit(cell: Cell) -> None:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            record("cell-dispatched", cell)
            pending[pool.submit(_execute, run_cell, task_of(cell), collect)] = cell
            totals.peak_in_flight = max(totals.peak_in_flight, len(pending))
            if gauge is not None and recorder.enabled:
                recorder.gauge(gauge, float(len(pending)))

        def admit(cell: Cell) -> None:
            nonlocal admitted
            cell.index = admitted
            admitted += 1
            if cell.task is None:
                record("cell-skipped", cell, cells=cell.size)
                ready[cell.index] = (cell, None)
                return
            key = cell.waits_on
            if key is not None and key not in published:
                if key in deferred:
                    deferred[key].append(cell)
                    return
                deferred[key] = []
            submit(cell)

        def fill() -> None:
            nonlocal exhausted
            # Released cells are gated on the pending count only: the cell
            # blocking in-order emission may itself be released, so counting
            # finished-but-unemitted cells here could livelock the stream.
            while release and len(pending) < cap:
                submit(release.popleft())
            # Admissions are planned in rounds: one store lookup per round.
            while len(pending) + len(ready) < cap and not release and not exhausted:
                budget = cap - len(pending) - len(ready)
                batch = list(itertools.islice(cells, budget))
                exhausted = len(batch) < budget
                for cell in planned(batch):
                    admit(cell)

        fill()
        while pending or ready or release or not exhausted:
            while next_emit in ready:
                yield from emit_cell(*ready.pop(next_emit))
                next_emit += 1
                fill()  # emission freed in-flight budget
            fill()
            if not pending:
                # Nothing in flight: more work just became ready or
                # releasable (loop again), or the sweep is drained.
                if ready or release or not exhausted:
                    continue
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                cell = pending.pop(future)
                result = future.result()  # propagate worker exceptions
                finished(cell, result)
                if journal is not None:
                    heartbeats[result.worker] = heartbeats.get(result.worker, 0) + 1
                    journal.record(
                        "worker-heartbeat",
                        worker=result.worker,
                        items=heartbeats[result.worker],
                    )
                ready[cell.index] = (cell, result)
                release.extend(deferred.pop(cell.waits_on, ()))
            totals.peak_pending = max(
                totals.peak_pending,
                sum(cell.size for cell, result in ready.values() if result is not None),
            )
        # Emission order is dense, so nothing can remain buffered.
        if ready or deferred:
            raise RuntimeError("cell executor lost a cell")
        completed = True
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        totals.elapsed = wall_clock() - start
        if writer is not None:
            writer.close()
            totals.inserted = writer.inserted
        stats = finish(totals)
        if writer is not None:
            store.finish_run(totals.store_run_id, completed=completed, stats=stats)
        if own_store is not None:
            own_store.close()
        if isinstance(journal, RunJournal):
            journal.record(
                "run-finished",
                status="completed" if completed else "aborted",
                records=emitted,
                elapsed=totals.elapsed,
            )
        if own_journal is not None:
            own_journal.close()
