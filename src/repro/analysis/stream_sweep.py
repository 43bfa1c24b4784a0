"""Steady-state load sweeps: utilisation ρ × policy over workload streams.

This is the streaming counterpart of the batch campaign dispatcher: the
sweep axis is the **offered load** ρ (arrival rate over the platform's
fluid capacity — see :meth:`repro.workload.streams.StreamSpec.offered_load`)
rather than a seed grid, and each cell is a *steady-state report*
(:class:`~repro.analysis.steady_state.SteadyStateReport`) rather than a
single-schedule measurement.

Cells are content-addressed exactly like batch campaign cells: the workload
key is ``StreamSpec.content_key()`` extended with the measurement protocol
(arrival budget, warmup fraction, batch count), the policy slot carries the
canonical variant identity, and the digest flows through
:func:`repro.store.digest.record_digest`.  With ``store=``/``resume=True``
a killed or re-parameterised ρ-sweep therefore tops up incrementally — a
fully stored sweep replays at a 100 % skip rate without simulating a single
arrival (the rich report round-trips through the store's ``extra`` JSON
column).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import WorkloadError
from ..heuristics import make_scheduler
from ..obs.journal import RunJournal
from ..obs.metrics import get_recorder
from ..obs.trace import Tracer, trace_stream_result
from ..heuristics.registry import resolve_policy_variant
from ..simulation.stream import StreamingSimulator
from ..workload.streams import StreamSpec, open_stream
from ._cells import Cell, CellResult, RunTotals, execute_cells
from .campaign import CampaignRecord
from .steady_state import SteadyStateReport, analyse_stream
from .tables import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import would cycle)
    from ..store import ExperimentStore

__all__ = [
    "StreamCellRecord",
    "StreamSweepResult",
    "StreamSweepStats",
    "run_stream_sweep",
]


def _finite(value: float, default: float) -> float:
    """``value`` when finite, ``default`` otherwise (NaN-safe projection)."""
    return float(value) if math.isfinite(value) else default


@dataclass(frozen=True)
class StreamCellRecord:
    """One (stream load, policy) steady-state measurement.

    Attributes
    ----------
    workload:
        Cell label, ``"<stream label>@rho=<value>"``.
    policy:
        Canonical policy (variant) label.
    rho:
        Offered load of the cell's stream.
    report:
        The full steady-state report (estimates, saturation, throughput).
    metrics:
        Optional per-cell obs snapshot (``MetricsRecorder.snapshot()``
        collected around the cell's simulation) — a reporting side-channel
        that rides in ``records.extra`` *outside* the digest: stored bytes
        are identical when obs is off.
    """

    workload: str
    policy: str
    rho: float
    report: SteadyStateReport
    metrics: Optional[Dict] = None

    def to_campaign_record(self) -> CampaignRecord:
        """Project the cell onto the store's fixed record columns.

        The mapping is documented rather than clever: ``max_weighted_flow``
        and ``max_stretch`` carry the post-warmup maxima, ``makespan`` the
        achieved utilisation, ``normalised`` the steady-state mean stretch
        (strictly positive, so the store's geometric-mean headline metrics
        stay well-defined).  The full report rides in the record's ``extra``
        JSON and is what :meth:`from_stored` rebuilds.

        Saturated cells that completed *nothing* post-warmup have NaN
        estimates; those are clamped to the columns' safe floors here —
        SQLite would bind NaN as NULL and the store's ``INSERT OR IGNORE``
        would silently drop the whole row, leaving the run's membership
        dangling and the cell permanently un-resumable.
        """
        return CampaignRecord(
            workload=self.workload,
            policy=self.policy,
            max_weighted_flow=_finite(self.report.max_weighted_flow, 0.0),
            max_stretch=_finite(self.report.max_stretch, 0.0),
            makespan=_finite(self.report.utilisation, 0.0),
            normalised=max(_finite(self.report.mean_stretch.mean, 1e-9), 1e-9),
            preemptions=self.report.peak_active,
        )

    def extra_payload(self) -> Dict:
        """The JSON side-channel persisted with the cell.

        The ``metrics`` key is present only when a snapshot was collected,
        so a sweep with obs disabled persists byte-identical extras.
        """
        payload = {"kind": "stream-cell", "rho": self.rho, "report": self.report.as_dict()}
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    @staticmethod
    def from_stored(stored) -> Optional["StreamCellRecord"]:
        """Rebuild a cell from a :class:`~repro.store.StoredRecord`.

        Returns ``None`` when the stored row carries no stream payload
        (pre-v2 cells, or a digest collision with a batch cell — impossible
        by construction, but treated as a miss rather than an error).
        """
        extra = stored.extra
        if not extra or extra.get("kind") != "stream-cell":
            return None
        return StreamCellRecord(
            workload=stored.workload,
            policy=stored.policy,
            rho=float(extra["rho"]),
            report=SteadyStateReport.from_dict(extra["report"]),
            metrics=extra.get("metrics"),
        )


@dataclass
class StreamSweepStats:
    """Throughput and resume trajectory of one ρ-sweep.

    Attributes
    ----------
    cells, computed_cells, resumed_cells:
        Total cells and their computed/loaded-from-store split.
    arrivals:
        Arrivals actually simulated (0 for a fully resumed sweep).
    saturated_cells:
        Cells flagged saturated.
    elapsed_seconds:
        Wall-clock time of the sweep.
    max_workers:
        Worker processes requested (``None``: in-process sequential).
    store_run_id:
        Run id registered in the store (``None`` without a store).
    """

    cells: int = 0
    computed_cells: int = 0
    resumed_cells: int = 0
    arrivals: int = 0
    saturated_cells: int = 0
    elapsed_seconds: float = 0.0
    max_workers: Optional[int] = None
    store_run_id: Optional[int] = None

    @property
    def resume_skip_rate(self) -> float:
        """Fraction of cells served from the store instead of simulated."""
        return self.resumed_cells / self.cells if self.cells > 0 else 0.0

    @property
    def arrivals_per_second(self) -> float:
        """Simulated arrivals per wall-clock second of the whole sweep."""
        return self.arrivals / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def as_dict(self) -> Dict:
        """JSON-friendly view (bench trajectory files)."""
        return {
            "cells": self.cells,
            "computed_cells": self.computed_cells,
            "resumed_cells": self.resumed_cells,
            "resume_skip_rate": self.resume_skip_rate,
            "arrivals": self.arrivals,
            "arrivals_per_second": self.arrivals_per_second,
            "saturated_cells": self.saturated_cells,
            "elapsed_seconds": self.elapsed_seconds,
            "max_workers": self.max_workers,
            "store_run_id": self.store_run_id,
        }


@dataclass
class StreamSweepResult:
    """All cells of a ρ-sweep plus rendering helpers."""

    records: List[StreamCellRecord] = field(default_factory=list)
    stats: Optional[StreamSweepStats] = None

    def as_table(self) -> str:
        """ρ × policy steady-state stretch table."""
        rows = []
        for record in self.records:
            report = record.report
            estimate = report.mean_stretch
            rows.append(
                (
                    f"{record.rho:.2f}",
                    record.policy,
                    estimate.mean,
                    estimate.half_width,
                    report.max_stretch,
                    f"{report.utilisation:.2f}",
                    "SATURATED" if report.saturated else "ok",
                )
            )
        return format_table(
            ["rho", "policy", "mean stretch", "+/-", "max stretch", "util", "state"],
            rows,
            title="Steady-state load sweep (batch-means stretch, post-warmup)",
            float_format=".3f",
        )


def _cell_workload_key(
    spec: StreamSpec,
    *,
    max_arrivals: int,
    warmup_fraction: float,
    num_batches: int,
    confidence: float,
    max_active: int,
) -> str:
    """Workload key of one stream cell: spec identity plus the full protocol.

    Every parameter that can change a cell's value belongs here — including
    the saturation cap (it truncates super-critical runs) and the confidence
    level (it scales the stored half-widths) — otherwise a resumed sweep
    under different settings would silently serve stale cells.
    """
    return (
        f"{spec.content_key()};arrivals={max_arrivals}"
        f";warmup={warmup_fraction!r};batches={num_batches}"
        f";confidence={confidence!r};max-active={max_active}"
    )


def _run_stream_cell(
    task: Tuple[StreamSpec, str],
    *,
    max_arrivals: int,
    warmup_fraction: float,
    num_batches: int,
    confidence: float,
    max_active: int,
    keep_series: bool,
) -> Tuple[str, SteadyStateReport, int, object]:
    """Measure one (stream, policy) cell under the sweep's protocol.

    Module-level so the process pool can pickle it.  A cell's value depends
    only on the spec (which carries the seed) and the measurement protocol —
    never on which worker runs it or in what order — so a parallel sweep's
    cells are digest- and content-identical to the sequential sweep's
    (wall-clock throughput fields aside).  ``keep_series`` also returns the
    simulation result, for in-process tracing.
    """
    cell_spec, policy = task
    scheduler = make_scheduler(policy)
    simulator = StreamingSimulator(max_active=max_active)
    sim = simulator.run(open_stream(cell_spec), scheduler, max_arrivals=max_arrivals)
    report = analyse_stream(
        sim,
        warmup_fraction=warmup_fraction,
        num_batches=num_batches,
        confidence=confidence,
    )
    return scheduler.name, report, sim.arrivals, sim if keep_series else None


@dataclass
class _SweepSlot:
    """Parent-side view of one cell: its load, label, key and stored copy."""

    rho: float
    label: str
    key: str
    stored: Optional[StreamCellRecord] = None


def _plan_cell(cell: Cell, found: Mapping[str, object]) -> None:
    """Serve a cell from the store when it holds a stream payload (resume)."""
    stored = found.get(cell.lookups[0])
    record = StreamCellRecord.from_stored(stored) if stored is not None else None
    if record is not None:
        # The digest ignores labels; re-label for this sweep.
        cell.data.stored = replace(record, workload=cell.data.label)
        cell.task = None


def run_stream_sweep(
    spec: StreamSpec,
    policies: Sequence[str],
    *,
    rhos: Sequence[float],
    max_arrivals: int = 2000,
    warmup_fraction: float = 0.25,
    num_batches: int = 16,
    confidence: float = 0.95,
    max_active: int = 10_000,
    max_workers: Optional[int] = None,
    stats: Optional[StreamSweepStats] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    collect_metrics: bool = False,
    tracer: Optional[Tracer] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> StreamSweepResult:
    """Sweep offered load ρ × policy over one stream family.

    Parameters
    ----------
    spec:
        Base stream description; each ρ derives a rate-adjusted copy via
        :meth:`StreamSpec.with_utilisation` (so ``spec`` must not be a trace).
    policies:
        On-line policy names (variant tokens accepted), resolved through the
        registry per cell.
    rhos:
        Utilisation values to sweep (``rho >= 1`` cells are expected to
        saturate — they are measured and flagged, not skipped).
    max_arrivals:
        Arrival budget per cell.
    warmup_fraction, num_batches, confidence:
        Steady-state estimation protocol (folded into the cell digests: a
        different protocol is a different cell).
    max_active:
        Saturation cap forwarded to the simulator.
    max_workers:
        ``None`` (default) computes every cell in-process; an integer fans
        the not-resumed cells out over the cell executor's process pool
        (``0`` means "one worker per CPU", the campaign dispatcher's
        convention).  Store
        writes stay in the parent, in the sequential sweep's cell order, so
        the persisted cells are digest-identical either way.
    stats:
        Optional :class:`StreamSweepStats` filled in while sweeping.
    store, resume, run_label:
        Experiment-store sink and resume mode, exactly as in
        :func:`~repro.analysis.campaign.stream_campaign`.
    collect_metrics:
        Collect a per-cell obs snapshot around every *computed* cell and
        attach it to the cell (persisted in ``records.extra`` under the
        ``"metrics"`` key, outside the digest).  Off by default — the
        stored bytes are then identical to a sweep without obs.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` every *computed* cell's
        finished stream is traced into (:func:`trace_stream_result`, one
        track per cell).  Traces derive from the simulation's result
        series, so they are incompatible with the process pool (the
        parent never sees worker results' series): pass ``tracer`` only
        with the in-process path (``max_workers=None``).  Resumed cells
        are not traced — the store keeps reports, not result series.
    journal:
        Append lifecycle events (run started/finished, cell dispatched /
        completed / skipped-by-resume, worker heartbeats) to this
        :class:`~repro.obs.journal.RunJournal` (a path opens — and closes —
        one for the duration).  Journal data lives on the wall clock,
        strictly outside every digest: sweep results and stored bytes are
        identical with journaling on or off.
    """
    if not policies:
        raise WorkloadError("a stream sweep needs at least one policy")
    if not rhos:
        raise WorkloadError("a stream sweep needs at least one utilisation value")
    if max_arrivals < 1:
        raise WorkloadError("max_arrivals must be at least 1")
    if resume and store is None:
        raise WorkloadError("resume=True needs a store to resume from")
    if tracer is not None and max_workers is not None:
        raise WorkloadError(
            "tracer= needs the in-process path (max_workers=None): worker "
            "processes return reports, not the result series traces are built from"
        )

    own_stats = stats if stats is not None else StreamSweepStats()
    own_stats.max_workers = max_workers
    recorder = get_recorder()

    # Deferred import: repro.store depends on repro.analysis.campaign.
    from ..store.digest import record_digest

    # Resolve every policy token up front (fail fast, canonical identities).
    variants = [resolve_policy_variant(token) for token in policies]
    machines = spec.platform_instance().machines  # one platform build per sweep

    def cells() -> Iterator[Cell]:
        for index, rho in enumerate(rhos):
            cell_spec = spec.with_utilisation(rho, machines=machines)
            label = f"{spec.label}@rho={rho:.2f}"
            key = _cell_workload_key(
                cell_spec,
                max_arrivals=max_arrivals,
                warmup_fraction=warmup_fraction,
                num_batches=num_batches,
                confidence=confidence,
                max_active=max_active,
            )
            for variant in variants:
                digest = (
                    record_digest(key, variant.base, params=variant.params)
                    if store is not None
                    else ""
                )
                yield Cell(
                    task=(cell_spec, variant.label),
                    labels={
                        "cell": f"{label}/{variant.label}",
                        "workload": label,
                        "item": index,
                        "policies": [variant.label],
                    },
                    lookups=(digest,),
                    data=_SweepSlot(float(rho), label, key),
                )

    def emit(cell: Cell, result: Optional[CellResult]):
        slot: _SweepSlot = cell.data
        if result is None:
            record = slot.stored
            own_stats.resumed_cells += 1
        else:
            policy_name, report, arrivals, sim = result.value
            if tracer is not None:
                trace_stream_result(sim, tracer, track=f"{slot.label}/{policy_name}")
            record = StreamCellRecord(
                workload=slot.label,
                policy=policy_name,
                rho=slot.rho,
                report=report,
                metrics=result.snapshot if collect_metrics else None,
            )
            own_stats.computed_cells += 1
            own_stats.arrivals += arrivals
        own_stats.cells += 1
        if recorder.enabled:
            recorder.count("sweep.cells")
            recorder.count("sweep.cells_resumed" if result is None else "sweep.cells_computed")
        if record.report.saturated:
            own_stats.saturated_cells += 1
        yield record, cell.lookups[0], record.to_campaign_record(), {
            "workload_key": slot.key,
            "computed": result is not None,
            "extra": record.extra_payload(),
        }

    def finish(totals: RunTotals) -> Dict:
        own_stats.elapsed_seconds = totals.elapsed
        own_stats.store_run_id = totals.store_run_id
        return own_stats.as_dict()

    labels = [variant.label for variant in variants]
    records = execute_cells(
        cells(),
        functools.partial(
            _run_stream_cell,
            max_arrivals=max_arrivals,
            warmup_fraction=warmup_fraction,
            num_batches=num_batches,
            confidence=confidence,
            max_active=max_active,
            keep_series=tracer is not None,
        ),
        plan=_plan_cell,
        emit=emit,
        finish=finish,
        kind="stream-sweep",
        run_labels=(run_label or "stream-sweep", run_label or spec.label),
        meta={
            "stream": spec.payload(),
            "policies": labels,
            "rhos": [float(rho) for rho in rhos],
            "max_arrivals": max_arrivals,
            "warmup_fraction": warmup_fraction,
            "num_batches": num_batches,
            "resume": resume,
        },
        config={
            "policies": labels,
            "rhos": [float(rho) for rho in rhos],
            "max_arrivals": max_arrivals,
            "max_workers": max_workers,
            "resume": resume,
            "total_cells": len(rhos) * len(variants),
        },
        timer="sweep.cell_seconds",
        store=store,
        resume=resume,
        journal=journal,
        max_workers=max_workers,
        total=len(rhos) * len(variants),
        collect_metrics=collect_metrics,
    )
    return StreamSweepResult(records=list(records), stats=own_stats)
